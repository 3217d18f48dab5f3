package cashmere_test

import (
	"testing"

	"cashmere"
)

const scaleSrc = `
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] * 3.0;
  }
}
`

func TestPublicAPIEndToEnd(t *testing.T) {
	ks, err := cashmere.NewKernelSet("scale", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cashmere.DefaultConfig(2, "k20")
	cfg.Verify = true
	cl, err := cashmere.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(ks); err != nil {
		t.Fatal(err)
	}
	a := cashmere.NewFloatArray(64)
	for i := range a.F {
		a.F[i] = float64(i)
	}
	_, elapsed, err := cl.Run(func(ctx *cashmere.Context) any {
		k, err := cashmere.GetKernel(ctx, "scale")
		if err != nil {
			t.Error(err)
			return nil
		}
		return k.NewLaunch(cashmere.LaunchSpec{
			Params:  map[string]int64{"n": 64},
			InBytes: 256, OutBytes: 256,
			Args: []any{int64(64), a},
		}).Run(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	for i := range a.F {
		if a.F[i] != float64(i)*3 {
			t.Fatalf("a[%d] = %v", i, a.F[i])
		}
	}
}

func TestPublicFeedback(t *testing.T) {
	msgs, err := cashmere.Feedback(scaleSrc, "scale", "gpu", map[string]int64{"n": 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_ = msgs // a simple streaming kernel may be clean; the call must work
	if _, err := cashmere.Feedback("bad source", "x", "gpu", nil); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := cashmere.Feedback(scaleSrc, "scale", "nonexistent", nil); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestPublicKernelGFLOPS(t *testing.T) {
	ks, _ := cashmere.NewKernelSet("scale", scaleSrc)
	g, err := cashmere.KernelGFLOPS(ks, "titan", map[string]int64{"n": 1 << 24}, float64(1<<24))
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 {
		t.Fatalf("GFLOPS = %v", g)
	}
}

// TestHardwareLevels: the facade reaches every tier of the built-in
// hardware-description hierarchy (Fig. 2) by name.
func TestHardwareLevels(t *testing.T) {
	for _, level := range []string{"perfect", "gpu", "gtx480", "xeon_phi"} {
		if _, err := cashmere.Feedback(scaleSrc, "scale", level, map[string]int64{"n": 1 << 20}); err != nil {
			t.Fatalf("level %s: %v", level, err)
		}
	}
}

// TestParseMCPL: the facade parses and type-checks MCPL sources, rejecting a
// type error before any compilation.
func TestParseMCPL(t *testing.T) {
	if _, err := cashmere.NewKernelSet("scale", scaleSrc); err != nil {
		t.Fatal(err)
	}
	const bad = "perfect void k() { return 1; }"
	if _, err := cashmere.NewKernelSet("k", bad); err == nil {
		t.Fatal("type error not caught by NewKernelSet")
	}
	if _, err := cashmere.Feedback(bad, "k", "gpu", nil); err == nil {
		t.Fatal("type error not caught by Feedback")
	}
}

func TestPublicGraphAPI(t *testing.T) {
	ks, err := cashmere.NewKernelSet("scale", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cashmere.DefaultConfig(1, "k20")
	cfg.Verify = true
	cl, err := cashmere.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(ks); err != nil {
		t.Fatal(err)
	}
	a := cashmere.NewFloatArray(64)
	for i := range a.F {
		a.F[i] = float64(i)
	}
	gs := cashmere.NewGraphSpec("facade")
	in := gs.Input("in", 256)
	mid := gs.Intermediate("mid", 256)
	out := gs.Output("out", 256)
	p := map[string]int64{"n": 64}
	args := []any{int64(64), a}
	gs.Stage(cashmere.StageSpec{Kernel: "scale", Params: p,
		Reads: []*cashmere.GraphBuffer{in}, Writes: []*cashmere.GraphBuffer{mid}, Args: args})
	gs.Stage(cashmere.StageSpec{Kernel: "scale", Params: p,
		Reads: []*cashmere.GraphBuffer{mid}, Writes: []*cashmere.GraphBuffer{out}, Args: args})
	_, _, err = cl.Run(func(ctx *cashmere.Context) any {
		return cashmere.RunGraph(ctx, gs)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.F {
		if a.F[i] != float64(i)*9 { // two chained x3 scales, run for real
			t.Fatalf("a[%d] = %v, want %v", i, a.F[i], float64(i)*9)
		}
	}
	m := cl.CollectMetrics()
	if m.Int("graph.runs") != 1 || m.Int("graph.stages") != 2 {
		t.Errorf("graph metrics: runs=%d stages=%d, want 1/2", m.Int("graph.runs"), m.Int("graph.stages"))
	}
	if m.Int("graph.resident_hits") != 1 {
		t.Errorf("graph.resident_hits = %d, want 1 (the chained intermediate)", m.Int("graph.resident_hits"))
	}
}
