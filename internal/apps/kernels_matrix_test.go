package apps

import (
	"strings"
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/mcl/translate"
)

// TestEveryKernelCompilesForEveryLeaf pushes all four applications' kernel
// sets (both variants) through the full MCL pipeline — most-specific
// version selection, level validation, cost analysis and launch-glue
// computation — for each of the seven accelerator leaves, and translates
// and emits every version that applies to the leaf as mclc -emit does:
// the translated program must type-check and the emitter must render every
// statement. This is the breadth guarantee behind "scalable development of
// optimized kernels" (Sec. IV).
func TestEveryKernelCompilesForEveryLeaf(t *testing.T) {
	h := hdl.Library()
	type app struct {
		kernels func(Variant) (*codegen.KernelSet, error)
		params  map[string]int64
	}
	apps := map[string]app{
		"raytrace": {RaytracerKernels, map[string]int64{
			"w": 1024, "h": 512, "y0": 0, "rows": 8, "samples": 10, "ns": 8, "seed0": 1}},
		"matmul": {MatmulKernels, map[string]int64{"n": 256, "m": 256, "p": 512}},
		"kmeans": {KMeansKernels, map[string]int64{"n": 4096, "k": 256, "d": 4}},
		"nbody":  {NBodyKernels, map[string]int64{"nloc": 1024, "off": 0, "n": 8192}},
	}
	for name, a := range apps {
		for _, variant := range []Variant{CashmereUnoptimized, CashmereOptimized} {
			ks, err := a.kernels(variant)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, variant, err)
			}
			for _, leaf := range hdl.AcceleratorLeaves {
				c, err := ks.Compile(leaf, h)
				if err != nil {
					t.Fatalf("%s/%v on %s: compile: %v", name, variant, leaf, err)
				}
				lv, err := h.Lookup(leaf)
				if err != nil {
					t.Fatal(err)
				}
				for _, level := range ks.Levels() {
					if !lv.HasAncestor(level) {
						continue
					}
					tr, err := translate.Translate(ks.Versions[level].Prog, ks.Name, lv)
					if err != nil {
						t.Fatalf("%s/%v level %s on %s: translate: %v", name, variant, level, leaf, err)
					}
					if _, err := mcpl.Check(tr); err != nil {
						t.Fatalf("%s/%v level %s on %s: translated kernel does not check: %v", name, variant, level, leaf, err)
					}
					text, err := codegen.EmitOpenCL(tr, ks.Name)
					if err != nil {
						t.Fatalf("%s/%v level %s on %s: emit: %v", name, variant, level, leaf, err)
					}
					if !strings.Contains(text, "__kernel") {
						t.Fatalf("%s/%v level %s on %s: no kernel in generated code", name, variant, level, leaf)
					}
				}
				cost, err := c.Cost(a.params)
				if err != nil {
					t.Fatalf("%s/%v on %s: cost: %v", name, variant, leaf, err)
				}
				if !cost.Valid() || cost.Flops <= 0 {
					t.Fatalf("%s on %s: bad cost %+v", name, leaf, cost)
				}
				spec, _ := device.Lookup(leaf)
				if gf := spec.GFLOPS(cost); gf <= 0 || gf > spec.PeakSPFlops/1e9 {
					t.Fatalf("%s on %s: implausible %f GFLOPS", name, leaf, gf)
				}
				glue, err := c.LaunchConfig(a.params)
				if err != nil {
					t.Fatalf("%s/%v on %s: glue: %v", name, variant, leaf, err)
				}
				if glue.Items() <= 0 {
					t.Fatalf("%s on %s: empty launch config", name, leaf)
				}
			}
		}
	}
}

// TestKernelSelectionMatrix verifies the Sec. III-A selection rule across
// the optimized sets: NVIDIA and AMD leaves get the gpu-level kernels, the
// Xeon Phi gets its mic version where one exists and otherwise falls back
// to perfect.
func TestKernelSelectionMatrix(t *testing.T) {
	h := hdl.Library()
	cases := []struct {
		app      func(Variant) (*codegen.KernelSet, error)
		leaf     string
		expected string
	}{
		{MatmulKernels, "gtx480", "gpu"},
		{MatmulKernels, "hd7970", "gpu"},
		{MatmulKernels, "xeon_phi", "perfect"},
		{KMeansKernels, "k20", "gpu"},
		{KMeansKernels, "xeon_phi", "mic"},
		{NBodyKernels, "titan", "gpu"},
		{NBodyKernels, "xeon_phi", "perfect"},
	}
	for _, tc := range cases {
		ks, err := tc.app(CashmereOptimized)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ks.Compile(tc.leaf, h)
		if err != nil {
			t.Fatal(err)
		}
		if c.SourceLevel != tc.expected {
			t.Errorf("%s on %s selected level %s, want %s", ks.Name, tc.leaf, c.SourceLevel, tc.expected)
		}
	}
}

// TestCompileErrorsOnCustomHierarchy pins the exact errors Compile returns
// for kernels a small custom hardware description rejects: a unit the
// target leaf does not define (levels inherit their ancestors' units, so
// the declared level lacks it too and the level check reports it), and a
// unit the leaf decomposes into other than two units.
func TestCompileErrorsOnCustomHierarchy(t *testing.T) {
	h, err := hdl.Parse(`
hardware perfect {
  parallelism threads { max unlimited; }
  memory main { size unlimited; }
}
hardware gpu extends perfect {
  parallelism threads { max 1024; }
  memory global { size unlimited; }
}
hardware dev extends gpu {
  parallelism cores { max 8; }
  parallelism lanes { max 16; }
  map threads cores lanes threads;
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		kernels func(Variant) (*codegen.KernelSet, error)
		variant Variant
		leaf    string
		want    string
	}{
		{"unit undefined at the leaf", MatmulKernels, CashmereOptimized, "dev",
			`4:3: parallelism unit "blocks" is not defined by hardware description "gpu"`},
		{"mapping of three units", MatmulKernels, CashmereUnoptimized, "dev",
			`translate: unsupported mapping [cores lanes threads] for unit "threads"`},
	} {
		ks, err := tc.kernels(tc.variant)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ks.Compile(tc.leaf, h)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
