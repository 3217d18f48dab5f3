package core

import (
	"testing"

	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// BenchmarkGraphSubmitPath pins the zero-allocation contract of the graph
// submit path: after the first Run has planned, allocated the workspace and
// warmed the pools, every further submission of the whole DAG (three chained
// stages here) must allocate nothing. `make bench-allocs` fails the build if
// this reports a single alloc/op.
func BenchmarkGraphSubmitPath(b *testing.B) {
	cl, _ := NewCluster(DefaultConfig(1, "k20"))
	cl.Register(mustKS(b, "scale", scaleKernel))
	gs := chainSpec("bench", 1<<18, nil)
	_, _, err := cl.Run(func(ctx *satin.Context) any {
		g, err := GetGraph(ctx, gs)
		if err != nil {
			return err
		}
		for i := 0; i < 64; i++ { // warm pools and heap capacity
			if err := g.Run(ctx); err != nil {
				return err
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.Run(ctx); err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGraphVsNaive reports the headline numbers of EXPERIMENTS.md: the
// virtual makespan and PCIe traffic of 10 iterations of the three-stage
// chain, run as one dataflow graph versus the equivalent naive per-kernel
// launch sequence. The custom virtual_ns/op and
// moved_bytes/op metrics are trajectory-determined (identical on any host);
// the wall-clock ns/op is incidental.
func BenchmarkGraphVsNaive(b *testing.B) {
	const n = 1 << 22 // 16 MiB per buffer
	const iters = 10
	run := func(b *testing.B, graph bool) (simnet.Time, int64) {
		cl, _ := NewCluster(DefaultConfig(1, "k20"))
		cl.Register(mustKS(b, "scale", scaleKernel))
		gs := chainSpec("bench", n, nil)
		_, end, err := cl.Run(func(ctx *satin.Context) any {
			for i := 0; i < iters; i++ {
				if graph {
					if err := RunGraph(ctx, gs); err != nil {
						return err
					}
				} else if err := gs.RunNaive(ctx); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return end, cl.NodeState(0).Devices[0].BytesMoved()
	}
	for _, mode := range []struct {
		name  string
		graph bool
	}{{"graph", true}, {"naive", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var end simnet.Time
			var moved int64
			for i := 0; i < b.N; i++ {
				end, moved = run(b, mode.graph)
			}
			b.ReportMetric(float64(end), "virtual_ns/op")
			b.ReportMetric(float64(moved), "moved_bytes/op")
		})
	}
}
