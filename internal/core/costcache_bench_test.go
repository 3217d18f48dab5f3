package core_test

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/satin"
)

// BenchmarkKernelCost compares the memoized lookup against a fresh analysis
// (the per-launch saving for iterative applications), and times the
// raytracer's analysis, direct and memoized. Each raytracer leaf renders its
// own rows, so its y0 differs, but the cost never reads y0: after the first
// launch every leaf hits. `make bench-allocs` pins memoized and
// raytrace-memoized at 0 allocs/op.
func BenchmarkKernelCost(b *testing.B) {
	cl, _ := core.NewCluster(core.DefaultConfig(1, "k20"))
	ks, err := codegen.NewKernelSet("scale", core.ScaleKernel)
	if err != nil {
		b.Fatal(err)
	}
	cl.Register(ks)
	cl.Run(func(ctx *satin.Context) any { return nil })
	ns := cl.NodeState(0)
	c := ns.Compiled("scale")[0]
	params := map[string]int64{"n": 1 << 20}

	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ns.KernelCost(c, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Cost(params); err != nil {
				b.Fatal(err)
			}
		}
	})
	rks, err := apps.RaytracerKernels(apps.CashmereOptimized)
	if err != nil {
		b.Fatal(err)
	}
	rc, err := rks.Compile("gtx480", hdl.Library())
	if err != nil {
		b.Fatal(err)
	}
	p := apps.PaperRaytracer()
	rp := map[string]int64{
		"w": int64(p.W), "h": int64(p.H), "rows": int64(p.LeafRows),
		"samples": int64(p.Samples), "ns": int64(apps.CornellScene().Dims[0]), "seed0": p.Seed,
	}
	leaves := int64(p.H / p.LeafRows)
	// raytrace runs the analysis every time: one cost-cache miss.
	b.Run("raytrace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rp["y0"] = int64(i) % leaves * int64(p.LeafRows)
			if _, err := rc.Cost(rp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raytrace-memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rp["y0"] = int64(i) % leaves * int64(p.LeafRows)
			if _, err := ns.KernelCost(rc, rp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
