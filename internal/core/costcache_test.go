package core

import (
	"testing"

	"cashmere/internal/satin"
)

func TestCostCacheHitsOnRepeatedLaunches(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		for i := 0; i < 5; i++ {
			if err := k.NewLaunch(LaunchSpec{
				Params:  map[string]int64{"n": 1 << 16},
				InBytes: 4 << 16, OutBytes: 4 << 16,
			}).Run(ctx); err != nil {
				t.Error(err)
			}
		}
		return nil
	})
	hits, misses := cl.NodeState(0).CostCacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (one evaluation per distinct params)", misses)
	}
	if hits != 4 {
		t.Fatalf("hits = %d, want 4", hits)
	}
}

func TestCostCacheDistinguishesParams(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any { return nil })
	ns := cl.NodeState(0)
	c := ns.kernels["scale"][0]
	pa := map[string]int64{"n": 1 << 10}
	pb := map[string]int64{"n": 1 << 20}
	for i := 0; i < 2; i++ {
		ca, err := ns.kernelCost(c, pa)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := ns.kernelCost(c, pb)
		if err != nil {
			t.Fatal(err)
		}
		// The memoized values must match a direct evaluation, round after round.
		da, _ := c.Cost(pa)
		db, _ := c.Cost(pb)
		if ca != da || cb != db {
			t.Fatalf("cached cost diverged: %+v vs %+v / %+v vs %+v", ca, da, cb, db)
		}
	}
	if hits, misses := ns.CostCacheStats(); hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestCostCacheErrorsNotCached(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any { return nil })
	ns := cl.NodeState(0)
	c := ns.kernels["scale"][0]
	if _, err := ns.kernelCost(c, map[string]int64{}); err == nil {
		t.Fatal("missing parameter accepted")
	}
	if hits, misses := ns.CostCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("error path touched the cache: hits=%d misses=%d", hits, misses)
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a := map[string]int64{"n": 7, "m": 9, "k": 1 << 40}
	b := map[string]int64{"k": 1 << 40, "m": 9, "n": 7}
	if fingerprintParams(a) != fingerprintParams(b) {
		t.Fatal("fingerprint depends on construction order")
	}
	c := map[string]int64{"n": 7, "m": 9, "k": 1<<40 + 1}
	if fingerprintParams(a) == fingerprintParams(c) {
		t.Fatal("distinct params collide on a trivial perturbation")
	}
	if !paramsEqual(a, b) || paramsEqual(a, c) {
		t.Fatal("paramsEqual wrong")
	}
}
