package core_test

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/satin"
)

// costNode returns an initialized one-node cluster's node with the kernel
// sets registered.
func costNode(t *testing.T, device string, sets ...*codegen.KernelSet) *core.NodeState {
	t.Helper()
	cl, err := core.NewCluster(core.DefaultConfig(1, device))
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range sets {
		cl.Register(ks)
	}
	cl.Run(func(ctx *satin.Context) any { return nil })
	return cl.NodeState(0)
}

func scaleSet(t *testing.T) *codegen.KernelSet {
	t.Helper()
	ks, err := codegen.NewKernelSet("scale", core.ScaleKernel)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestCostCacheHitsOnRepeatedLaunches(t *testing.T) {
	cl, _ := core.NewCluster(core.DefaultConfig(1, "k20"))
	cl.Register(scaleSet(t))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := core.GetKernel(ctx, "scale")
		for i := 0; i < 5; i++ {
			if err := k.NewLaunch(core.LaunchSpec{
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
	ns := costNode(t, "k20", scaleSet(t))
	c := ns.Compiled("scale")[0]
	pa := map[string]int64{"n": 1 << 10}
	pb := map[string]int64{"n": 1 << 20}
	for i := 0; i < 2; i++ {
		ca, err := ns.KernelCost(c, pa)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := ns.KernelCost(c, pb)
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
	ns := costNode(t, "k20", scaleSet(t))
	c := ns.Compiled("scale")[0]
	if _, err := ns.KernelCost(c, map[string]int64{}); err == nil {
		t.Fatal("missing parameter accepted")
	}
	if hits, misses := ns.CostCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("error path touched the cache: hits=%d misses=%d", hits, misses)
	}
}

// TestCostCacheKeysOnObservedParams checks that launches differing only in
// parameters the cost analysis never reads share one entry — each raytracer
// leaf's row offset and seed, each n-body leaf's body offset — while a
// change to an extent, trip count or array dimension misses.
func TestCostCacheKeysOnObservedParams(t *testing.T) {
	rks, err := apps.RaytracerKernels(apps.CashmereOptimized)
	if err != nil {
		t.Fatal(err)
	}
	nks, err := apps.NBodyKernels(apps.CashmereOptimized)
	if err != nil {
		t.Fatal(err)
	}
	ray := map[string]int64{"w": 1024, "h": 512, "y0": 0, "rows": 4, "samples": 8, "ns": 9, "seed0": 1}
	body := map[string]int64{"nloc": 1024, "off": 0, "n": 8192}
	cases := []struct {
		kernel string
		base   map[string]int64
		same   map[string][]int64 // values that must hit after the first miss
		differ map[string]int64   // each of these alone must miss
	}{
		{"raytrace", ray,
			map[string][]int64{"y0": {4, 256, 508}, "seed0": {2, 77}},
			map[string]int64{"rows": 8, "samples": 16, "w": 2048}},
		{"nbody", body,
			map[string][]int64{"off": {1024, 4096, 7168}},
			map[string]int64{"n": 16384, "nloc": 2048}},
	}
	for _, tc := range cases {
		ns := costNode(t, "gtx480", rks, nks)
		c := ns.Compiled(tc.kernel)[0]
		check := func(params map[string]int64) {
			t.Helper()
			got, err := ns.KernelCost(c, params)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := c.Cost(params); got != want {
				t.Fatalf("%s %v: cached cost %+v, direct %+v", tc.kernel, params, got, want)
			}
		}
		check(tc.base)
		n := 0
		for name, vals := range tc.same {
			for _, v := range vals {
				check(with(tc.base, name, v))
				n++
			}
		}
		if hits, misses := ns.CostCacheStats(); hits != int64(n) || misses != 1 {
			t.Fatalf("%s: hits=%d misses=%d after varying unread parameters, want %d/1", tc.kernel, hits, misses, n)
		}
		for name, v := range tc.differ {
			_, before := ns.CostCacheStats()
			check(with(tc.base, name, v))
			if _, after := ns.CostCacheStats(); after != before+1 {
				t.Fatalf("%s: changing %s hit the cache", tc.kernel, name)
			}
		}
	}
}

// with returns a copy of params with one value replaced.
func with(params map[string]int64, name string, v int64) map[string]int64 {
	out := make(map[string]int64, len(params))
	for k, x := range params {
		out[k] = x
	}
	out[name] = v
	return out
}
