package hdl

import "sync"

// LibrarySource is the HDL source of the hardware-description hierarchy
// used by Cashmere (Fig. 2 of the paper): the root "perfect", intermediate
// levels gpu/nvidia/fermi/kepler/amd/mic, and the seven leaf devices of the
// DAS-4 evaluation plus the host CPU.
const LibrarySource = `
# The root: idealized hardware. Unlimited compute units, one-cycle memory.
hardware perfect {
  parallelism threads { max unlimited; }
  memory main { size unlimited; }
}

# Generic GPU: two-level parallelism (blocks of threads), a coalescing-
# sensitive global memory, a per-block scratchpad and per-thread registers.
hardware gpu extends perfect {
  parallelism blocks { max unlimited; }
  parallelism threads within blocks { max 1024; simd 32; }
  memory global { size unlimited; coalescing required; }
  memory local within blocks { size 16K; }
  memory private within threads { size 1K; }
  map threads blocks threads;
  property kind gpu;
}

hardware nvidia extends gpu {
  property warp 32;
}

hardware fermi extends nvidia {
  memory local within blocks { size 48K; }
  property l2cache 768K;
}

hardware kepler extends nvidia {
  memory local within blocks { size 48K; }
  parallelism threads within blocks { max 1024; simd 32; }
  property l2cache 1536K;
}

hardware gtx480 extends fermi {
  property compute_units 15;
  property clock 1401M;
}

hardware c2050 extends fermi {
  property compute_units 14;
  property clock 1150M;
}

hardware k20 extends kepler {
  property compute_units 13;
  property clock 706M;
}

hardware gtx680 extends kepler {
  property compute_units 8;
  property clock 1006M;
}

hardware titan extends kepler {
  property compute_units 14;
  property clock 837M;
}

hardware amd extends gpu {
  parallelism threads within blocks { max 256; simd 64; }
  memory local within blocks { size 32K; }
  property wavefront 64;
}

hardware hd7970 extends amd {
  memory local within blocks { size 64K; }
  property compute_units 32;
  property clock 925M;
}

# Many Integrated Core: wide-vector cache-based cores. Distinct subtree from
# gpu, so a kernel optimized on level gpu does NOT apply to the Xeon Phi.
hardware mic extends perfect {
  parallelism cores { max 240; }
  parallelism vectors within cores { max 16; simd 16; }
  memory global { size unlimited; }
  memory private within cores { size 32K; }
  map threads cores vectors;
  property kind mic;
}

hardware xeon_phi extends mic {
  property compute_units 60;
  property clock 1053M;
}

# Host CPU, used for Satin leaves and the CPU fallback path.
hardware cpu extends perfect {
  parallelism cores { max 64; }
  parallelism vectors within cores { max 8; simd 4; }
  memory global { size unlimited; }
  memory private within cores { size 256K; }
  map threads cores vectors;
  property kind cpu;
}
`

// Library returns the built-in hierarchy, parsed once per process: every
// caller shares it, so it must not be modified, and a kernel set's compile
// cache (keyed by hierarchy) serves all of them. It panics on parse errors,
// which tests guard against.
func Library() *Hierarchy { return library() }

var library = sync.OnceValue(func() *Hierarchy {
	h, err := Parse(LibrarySource)
	if err != nil {
		panic("hdl: built-in library: " + err.Error())
	}
	return h
})

// AcceleratorLeaves are the seven many-core leaf levels of Fig. 2, matching
// the seven device types of the DAS-4 evaluation.
var AcceleratorLeaves = []string{"c2050", "gtx480", "gtx680", "hd7970", "k20", "titan", "xeon_phi"}
