package codegen

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
)

// The unoptimized matmul of Fig. 3 (level perfect).
const matmulPerfect = `
perfect void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) {
        sum += a[i,k] * b[k,j];
      }
      c[i,j] += sum;
    }
  }
}
`

// The optimized matmul at level gpu: 16x16 local-memory tiling, the
// canonical refinement the MCL feedback suggests. Requires n, m, p to be
// multiples of 16.
const matmulGPU = `
gpu void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int bi in n / 16 blocks) {
    foreach (int bj in m / 16 blocks) {
      local float[16,16] ta;
      local float[16,16] tb;
      foreach (int ti in 16 threads) {
        foreach (int tj in 16 threads) {
          float sum = 0.0;
          for (int t = 0; t < p / 16; t++) {
            ta[ti,tj] = a[bi * 16 + ti, t * 16 + tj];
            tb[ti,tj] = b[t * 16 + ti, bj * 16 + tj];
            barrier();
            for (int k = 0; k < 16; k++) {
              sum += ta[ti,k] * tb[k,tj];
            }
            barrier();
          }
          c[bi * 16 + ti, bj * 16 + tj] += sum;
        }
      }
    }
  }
}
`

func mustCheck(t *testing.T, src string) *mcpl.Info {
	t.Helper()
	prog, err := mcpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := mcpl.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestAnalyzeMatmulFlopsAndTraffic(t *testing.T) {
	info := mustCheck(t, matmulPerfect)
	const n, m, p = 256, 128, 64
	rep, err := Analyze(info, "matmul", map[string]int64{"n": n, "m": m, "p": p}, 32)
	if err != nil {
		t.Fatal(err)
	}
	// 2 flops per inner iteration plus the final += : 2nmp + nm.
	wantFlops := float64(2*n*m*p + n*m)
	if math.Abs(rep.Flops-wantFlops)/wantFlops > 0.01 {
		t.Fatalf("Flops = %g, want ~%g", rep.Flops, wantFlops)
	}
	// b[k,j] is coalesced (j is the lane): 4nmp bytes. a[i,k] is uniform
	// across j: 4nmp/32. c accessed twice coalesced: 8nm.
	wantCoal := float64(4*n*m*p + 8*n*m)
	if math.Abs(rep.CoalescedBytes-wantCoal)/wantCoal > 0.01 {
		t.Fatalf("CoalescedBytes = %g, want ~%g", rep.CoalescedBytes, wantCoal)
	}
	wantUni := float64(4*n*m*p) / 32
	if math.Abs(rep.UniformBytes-wantUni)/wantUni > 0.01 {
		t.Fatalf("UniformBytes = %g, want ~%g", rep.UniformBytes, wantUni)
	}
	if rep.StridedBytes != 0 || rep.GatheredBytes != 0 {
		t.Fatalf("unexpected strided/gathered traffic: %g/%g", rep.StridedBytes, rep.GatheredBytes)
	}
	if rep.DivergentFlops != 0 {
		t.Fatalf("matmul reported divergent flops: %g", rep.DivergentFlops)
	}
	if rep.UsesLocalMemory {
		t.Fatal("perfect-level matmul reported local memory")
	}
	if rep.ThreadParallelism != n*m {
		t.Fatalf("parallelism = %g", rep.ThreadParallelism)
	}
}

func TestAnalyzeTiledMatmulReducesTraffic(t *testing.T) {
	unopt := mustCheck(t, matmulPerfect)
	opt := mustCheck(t, matmulGPU)
	params := map[string]int64{"n": 512, "m": 512, "p": 512}
	ru, err := Analyze(unopt, "matmul", params, 32)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Analyze(opt, "matmul", params, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.UsesLocalMemory || ro.LocalBytes != 2*16*16*4 {
		t.Fatalf("tiled kernel local memory = %v/%d", ro.UsesLocalMemory, ro.LocalBytes)
	}
	// Tiling divides global traffic by ~8 (16x tile reuse on the dominant
	// term, but both a and b now move nmp/16*4 bytes each x2 arrays).
	total := func(r *Report) float64 {
		return r.UniformBytes + r.CoalescedBytes + r.StridedBytes + r.GatheredBytes
	}
	ratio := total(ru) / total(ro)
	if ratio < 4 || ratio > 20 {
		t.Fatalf("traffic reduction = %.1fx, want ~8x (unopt %g, opt %g)", ratio, total(ru), total(ro))
	}
	// Flop counts stay comparable (same algorithm).
	if ro.Flops < ru.Flops*0.9 || ro.Flops > ru.Flops*1.6 {
		t.Fatalf("flops changed too much: %g vs %g", ro.Flops, ru.Flops)
	}
}

func TestCostOptimizedMatmulFasterOnGTX480(t *testing.T) {
	spec := device.Catalog()["gtx480"]
	params := map[string]int64{"n": 2048, "m": 2048, "p": 2048}
	ru, _ := Analyze(mustCheck(t, matmulPerfect), "matmul", params, spec.SIMDWidth)
	ro, _ := Analyze(mustCheck(t, matmulGPU), "matmul", params, spec.SIMDWidth)
	cu := Cost(ru, spec, 4)
	co := Cost(ro, spec, 3)
	tu := spec.KernelTime(cu)
	to := spec.KernelTime(co)
	speedup := tu.Seconds() / to.Seconds()
	if speedup < 2 || speedup > 12 {
		t.Fatalf("optimized speedup = %.2fx, want the 'drastic effect' of Fig. 6 (2-12x)", speedup)
	}
	gflops := spec.GFLOPS(co)
	if gflops < 300 || gflops > 1000 {
		t.Fatalf("optimized matmul on gtx480 = %.0f GFLOPS; implausible for a 1345 GFLOPS part", gflops)
	}
}

func TestDivergentKernelAnalysis(t *testing.T) {
	src := `
perfect void walk(int n, float[n] a, float[n] out) {
  foreach (int i in n threads) {
    float x = a[i];
    float acc = 0.0;
    @expect(10) while (x > 0.01) {
      if (x > 0.5) {
        acc += x * x;
      } else {
        acc += x;
      }
      x = x * 0.3;
    }
    out[i] = acc;
  }
}`
	rep, err := Analyze(mustCheck(t, src), "walk", map[string]int64{"n": 1024}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DivergentFrac() < 0.3 {
		t.Fatalf("divergent frac = %.2f, want heavy divergence", rep.DivergentFrac())
	}
}

func TestStridedAccessDetected(t *testing.T) {
	// Column-major access: thread i reads a[i*m + j] flattened as a[i,j]
	// over dim j fast — here we index a[j,i] so lane i has stride m.
	src := `
perfect void transposeRead(int n, int m, float[n,m] a, float[m,n] out) {
  foreach (int j in m threads) {
    foreach (int i in n threads) {
      out[j,i] = a[i,j];
    }
  }
}`
	rep, err := Analyze(mustCheck(t, src), "transposeRead", map[string]int64{"n": 64, "m": 64}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StridedBytes == 0 {
		t.Fatalf("strided read not detected: %+v", rep)
	}
	if rep.CoalescedBytes == 0 {
		t.Fatal("coalesced write not detected")
	}
}

func TestGatheredAccessDetected(t *testing.T) {
	src := `
perfect void gather(int n, int[n] idx, float[n] a, float[n] out) {
  foreach (int i in n threads) {
    out[i] = a[idx[i]];
  }
}`
	rep, err := Analyze(mustCheck(t, src), "gather", map[string]int64{"n": 1024}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GatheredBytes == 0 {
		t.Fatal("gathered access not detected")
	}
}

func TestAnalyzeWarningsForUnknownLoops(t *testing.T) {
	src := `
perfect void k(int n, float[n] a) {
  foreach (int i in n threads) {
    float x = a[i];
    while (x > 1.0) {
      x = x * 0.5;
    }
    a[i] = x;
  }
}`
	rep, err := Analyze(mustCheck(t, src), "k", map[string]int64{"n": 4}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) == 0 || !strings.Contains(rep.Warnings[0], "@expect") {
		t.Fatalf("warnings = %v", rep.Warnings)
	}
}

func TestAnalyzeMissingParam(t *testing.T) {
	if _, err := Analyze(mustCheck(t, matmulPerfect), "matmul", map[string]int64{"n": 4}, 32); err == nil {
		t.Fatal("missing params accepted")
	}
	if _, err := Analyze(mustCheck(t, matmulPerfect), "nope", nil, 32); err == nil {
		t.Fatal("missing kernel accepted")
	}
}

func TestKernelSetCompileSelectsMostSpecific(t *testing.T) {
	h := hdl.Library()
	ks, err := NewKernelSet("matmul", matmulPerfect, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	if got := ks.Levels(); len(got) != 2 || got[0] != "gpu" || got[1] != "perfect" {
		t.Fatalf("levels = %v", got)
	}
	// NVIDIA leaf picks the gpu version.
	c, err := ks.Compile("gtx480", h)
	if err != nil {
		t.Fatal(err)
	}
	if c.SourceLevel != "gpu" || c.Distance != 3 {
		t.Fatalf("gtx480 chose %s (distance %d)", c.SourceLevel, c.Distance)
	}
	// The Phi is not under gpu, so it falls back to perfect.
	cp, err := ks.Compile("xeon_phi", h)
	if err != nil {
		t.Fatal(err)
	}
	if cp.SourceLevel != "perfect" || cp.Distance != 2 {
		t.Fatalf("xeon_phi chose %s (distance %d)", cp.SourceLevel, cp.Distance)
	}
}

func TestCompiledRunMatchesReference(t *testing.T) {
	h := hdl.Library()
	ks, _ := NewKernelSet("matmul", matmulPerfect, matmulGPU)
	c, err := ks.Compile("gtx480", h)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32 // multiple of 16 for the tiled version
	rng := rand.New(rand.NewSource(5))
	a := interp.NewFloatArray(n, n)
	b := interp.NewFloatArray(n, n)
	for i := range a.F {
		a.F[i] = rng.Float64()
		b.F[i] = rng.Float64()
	}
	out := interp.NewFloatArray(n, n)
	if err := c.Run(int64(n), int64(n), int64(n), out, a, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			for k := 0; k < n; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(out.At(i, j)-want) > 1e-9 {
				t.Fatalf("tiled matmul wrong at (%d,%d): %v vs %v", i, j, out.At(i, j), want)
			}
		}
	}
}

func TestEmitOpenCLGolden(t *testing.T) {
	prog := mustCheck(t, matmulPerfect).Prog
	text, err := EmitOpenCL(prog, "matmul")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"__kernel void matmul",
		"__global float* c",
		"get_global_id(0)",
		"get_global_id(1)",
		"a[(i) * (p) + k]",
		"float sum = 0.0f;",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("generated OpenCL missing %q:\n%s", want, text)
		}
	}
}

func TestEmitOpenCLTiledUsesLocalAndBarrier(t *testing.T) {
	prog := mustCheck(t, matmulGPU).Prog
	text, err := EmitOpenCL(prog, "matmul")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"__local float ta[(16) * (16)];",
		"barrier(CLK_LOCAL_MEM_FENCE);",
		"int bi = get_group_id(0);",
		"int bj = get_group_id(1);",
		"int ti = get_local_id(0);",
		"int tj = get_local_id(1);",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("generated OpenCL missing %q:\n%s", want, text)
		}
	}
}

func TestLaunchConfig(t *testing.T) {
	h := hdl.Library()
	ks, _ := NewKernelSet("matmul", matmulPerfect)
	c, err := ks.Compile("gtx480", h)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.LaunchConfig(map[string]int64{"n": 1000, "m": 500, "p": 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.GlobalSize) != 2 || len(g.LocalSize) != 2 {
		t.Fatalf("glue = %+v", g)
	}
	// 2D nest: 16x16 work-groups, global rounded up.
	if g.LocalSize[0] != 16 || g.GlobalSize[0] != 1008 || g.GlobalSize[1] != 512 {
		t.Fatalf("glue = %+v", g)
	}
	if g.GlobalSize[0]*g.GlobalSize[1] != 1008*512 {
		t.Fatalf("items = %d", g.GlobalSize[0]*g.GlobalSize[1])
	}
}

func TestLaunchConfigExplicitBlocks(t *testing.T) {
	h := hdl.Library()
	ks, err := NewKernelSet("matmul", matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ks.Compile("k20", h)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.LaunchConfig(map[string]int64{"n": 64, "m": 64, "p": 64})
	if err != nil {
		t.Fatal(err)
	}
	// 4x4 blocks of 16x16 threads.
	if len(g.GlobalSize) != 2 || g.GlobalSize[0] != 64 || g.LocalSize[0] != 16 {
		t.Fatalf("glue = %+v", g)
	}
}

func TestCostMissingDeviceModel(t *testing.T) {
	c := &Compiled{Name: "x", Leaf: "nonexistent"}
	if _, err := c.Cost(nil); err == nil {
		t.Fatal("Cost without device model succeeded")
	}
}

func TestKernelSetErrors(t *testing.T) {
	if _, err := NewKernelSet("matmul"); err == nil {
		t.Fatal("empty kernel set accepted")
	}
	if _, err := NewKernelSet("matmul", "not mcpl"); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := NewKernelSet("matmul", matmulPerfect, matmulPerfect); err == nil {
		t.Fatal("duplicate level accepted")
	}
	if _, err := NewKernelSet("other", matmulPerfect); err == nil {
		t.Fatal("wrong kernel name accepted")
	}
}

// TestCompiledRunUsesClosureEngine checks that Compile wires in the
// closure-compiled fast engine for supported kernels and memoizes it per
// version of the kernel set.
func TestCompiledRunUsesClosureEngine(t *testing.T) {
	h := hdl.Library()
	ks, _ := NewKernelSet("matmul", matmulPerfect)
	c1, err := ks.Compile("gtx480", h)
	if err != nil {
		t.Fatal(err)
	}
	if c1.engine == nil {
		t.Fatal("supported kernel did not get a closure engine")
	}
	c2, err := ks.Compile("xeon_phi", h)
	if err != nil {
		t.Fatal(err)
	}
	if c2.engine != c1.engine {
		t.Fatal("engine not memoized across Compile calls on the same program")
	}
}

// TestKernelSetCompileConcurrent: goroutines compiling one kernel set at
// once, in different leaf orders, all get the set's one Compiled per
// (level, leaf), and price launches with it at the same time.
func TestKernelSetCompileConcurrent(t *testing.T) {
	h := hdl.Library()
	ks, err := NewKernelSet("matmul", matmulPerfect, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	leaves := hdl.AcceleratorLeaves
	params := map[string]int64{"n": 256, "m": 256, "p": 256}
	const workers = 8
	got := make([][]*Compiled, workers) // per worker: Compile, then CompileAt perfect, per leaf
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*Compiled, 2*len(leaves))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range leaves {
				i := (k + w) % len(leaves)
				c, err := ks.Compile(leaves[i], h)
				if err != nil {
					t.Error(err)
					return
				}
				p, err := ks.CompileAt("perfect", leaves[i], h)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Cost(params); err != nil {
					t.Error(err)
					return
				}
				got[w][2*i], got[w][2*i+1] = c, p
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	distinct := map[*Compiled]bool{}
	for w := range got {
		for i, c := range got[w] {
			if c != got[0][i] {
				t.Fatalf("worker %d got its own compile of %s", w, leaves[i/2])
			}
			distinct[c] = true
		}
	}
	if len(ks.compiled) != len(distinct) || len(ks.engines) != 2 {
		t.Fatalf("%d cached compiles and %d engines for %d distinct results over 2 versions", len(ks.compiled), len(ks.engines), len(distinct))
	}
}

// TestCompileRejectsRacyOuterScalar checks that a kernel the closure
// engine cannot lower (a reduction into an outer scalar across a
// barrier-synchronized foreach) fails to compile, with an error naming the
// kernel and the offending assignment.
func TestCompileRejectsRacyOuterScalar(t *testing.T) {
	const src = `
perfect void colsum(int n, float[n] xs, float[1] out) {
  float acc = 0.0;
  foreach (int i in 1 threads) {
    for (int j = 0; j < n; j++) {
      acc += xs[j];
    }
    barrier();
  }
  out[0] = acc;
}
`
	ks, err := NewKernelSet("colsum", src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ks.Compile("gtx480", hdl.Library())
	if err == nil {
		t.Fatal("Compile accepted a racy write to an outer scalar")
	}
	for _, want := range []string{"codegen: kernel colsum:", "6:7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Compile err = %v, want it to contain %q", err, want)
		}
	}
}
