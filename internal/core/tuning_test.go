package core

import (
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/tune"
	"cashmere/internal/satin"
)

func TestAutoPartitions(t *testing.T) {
	cases := []struct{ nodes, procs, want int }{
		{16, 4, 4},  // one partition per processor
		{2, 8, 2},   // never more partitions than nodes
		{1, 16, 1},  // single node degrades to sequential
		{16, 1, 1},  // single-core host degrades to sequential
		{64, 32, 8}, // capped at 8
		{16, 0, 1},  // degenerate proc count still yields a valid value
		{16, -1, 1}, // negative too
		{8, 8, 8},   // exact fit
		{16, 2, 1},  // below 4 processors partitions lose: sequential
		{16, 3, 1},  // likewise
		{4, 4, 4},   // the smallest host that partitions
	}
	for _, c := range cases {
		if got := AutoPartitions(c.nodes, c.procs); got != c.want {
			t.Errorf("AutoPartitions(%d, %d) = %d, want %d", c.nodes, c.procs, got, c.want)
		}
		if got := AutoPartitions(c.nodes, c.procs); got > c.nodes && c.nodes > 0 {
			t.Errorf("AutoPartitions(%d, %d) exceeds node count", c.nodes, c.procs)
		}
	}
}

func TestClusterUsesTuningCacheWinner(t *testing.T) {
	ks := mustKS(t, "scale", scaleKernel)
	spec, err := device.Lookup("gtx480")
	if err != nil {
		t.Fatal(err)
	}
	cache := tune.NewCache()
	cache.Put(tune.Key(ks, spec), &tune.Entry{
		Kernel: "scale", Device: "gtx480",
		Level: "perfect", Local: []int64{64},
		KernelNs: 1, ServiceNs: 1, BaselineNs: 1,
	})

	cfg := DefaultConfig(1, "gtx480")
	cfg.Tuning = cache
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(ks); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Run(func(ctx *satin.Context) any { return nil }); err != nil {
		t.Fatal(err)
	}
	c := cl.NodeState(0).kernels["scale"].compiled[0]
	if got := c.LaunchExtents(); len(got) != 1 || got[0] != 64 {
		t.Fatalf("tuned extents not applied: %v", got)
	}
	if !c.GeometryCost() {
		t.Fatal("tuned compile did not enable the geometry-aware model")
	}
	// The tuned form is the cluster's private copy: the kernel set's shared
	// compile at the tuned level keeps the translator-era model.
	shared, err := ks.CompileAt("perfect", "gtx480", hdl.Library())
	if err != nil {
		t.Fatal(err)
	}
	if shared == c || shared.GeometryCost() || shared.LaunchExtents() != nil {
		t.Fatal("tuning modified the kernel set's shared compile")
	}

	// A miss (different kernel source -> different key) falls back to the
	// classic compile, untouched.
	other := mustKS(t, "scale", `
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] * 3.0;
  }
}
`)
	cfg2 := DefaultConfig(1, "gtx480")
	cfg2.Tuning = cache
	cl2, err := NewCluster(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	cl2.Register(other)
	if _, _, err := cl2.Run(func(ctx *satin.Context) any { return nil }); err != nil {
		t.Fatal(err)
	}
	c2 := cl2.NodeState(0).kernels["scale"].compiled[0]
	if c2.LaunchExtents() != nil || c2.GeometryCost() {
		t.Fatal("cache miss still altered the compile")
	}
}

func TestTuneMetricsExported(t *testing.T) {
	// Without a tuning cache the metrics exist and are zero, so dumps stay
	// byte-comparable across tuned and untuned configurations.
	cl := runScaleCluster(t, DefaultConfig(1, "k20"))
	m := cl.CollectMetrics()
	for _, name := range []string{"tune.cache_hits", "tune.cache_misses", "tune.evaluations"} {
		if !m.Has(name) {
			t.Fatalf("metrics missing %q", name)
		}
		if v := m.Int(name); v != 0 {
			t.Fatalf("%s = %d without tuning", name, v)
		}
	}

	// With a cache, TuneOnce misses then hits, and the counts surface.
	ks := mustKS(t, "scale", scaleKernel)
	spec, _ := device.Lookup("k20")
	cache := tune.NewCache()
	req := tune.Request{Set: ks, Device: spec, Params: map[string]int64{"n": 1 << 20}, InBytes: 4 << 20, OutBytes: 4 << 20}
	if _, err := cache.TuneOnce(req, hdl.Library()); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, "k20")
	cfg.Tuning = cache
	cl2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl2.Register(ks)
	if _, _, err := cl2.Run(func(ctx *satin.Context) any { return nil }); err != nil {
		t.Fatal(err)
	}
	m2 := cl2.CollectMetrics()
	hits := m2.Int("tune.cache_hits")
	misses := m2.Int("tune.cache_misses")
	evals := m2.Int("tune.evaluations")
	if hits < 1 || misses != 1 || evals < 1 {
		t.Fatalf("tune metrics hits=%d misses=%d evals=%d", hits, misses, evals)
	}
}
