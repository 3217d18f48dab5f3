package core

import (
	"strings"
	"testing"

	"cashmere/internal/mcl/interp"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// chainSpec builds the canonical three-stage pipeline over one n-element
// float array: scale -> scale -> scale, chained through two intermediates.
// Naive traffic is 6x the array; a graph run needs only input + output (2x).
func chainSpec(name string, n int64, args []any) *GraphSpec {
	bytes := 4 * n
	gs := NewGraphSpec(name)
	a := gs.Input("a", bytes)
	b := gs.Intermediate("b", bytes)
	c := gs.Intermediate("c", bytes)
	d := gs.Output("d", bytes)
	p := map[string]int64{"n": n}
	gs.Stage(StageSpec{Kernel: "scale", Params: p, Reads: []*GraphBuffer{a}, Writes: []*GraphBuffer{b}, Label: "s0", Args: args})
	gs.Stage(StageSpec{Kernel: "scale", Params: p, Reads: []*GraphBuffer{b}, Writes: []*GraphBuffer{c}, Label: "s1", Args: args})
	gs.Stage(StageSpec{Kernel: "scale", Params: p, Reads: []*GraphBuffer{c}, Writes: []*GraphBuffer{d}, Label: "s2", Args: args})
	return gs
}

// TestGraphChainKeepsIntermediatesResident pins the tentpole accounting: a
// chained graph moves exactly input+output over PCIe, repeat runs skip the
// input upload while its Version is unchanged, and SetVersion re-ships it.
func TestGraphChainKeepsIntermediatesResident(t *testing.T) {
	const n = 1 << 20 // 4 MiB per buffer
	const bytes = 4 * n
	gs := chainSpec("chain", n, nil)
	cl, _ := NewCluster(DefaultConfig(1, "k20"))
	cl.Register(mustKS(t, "scale", scaleKernel))
	dev := cl.NodeState(0).Devices[0]
	var after [3]int64
	_, _, err := cl.Run(func(ctx *satin.Context) any {
		for i := 0; i < 2; i++ {
			if err := RunGraph(ctx, gs); err != nil {
				t.Error(err)
			}
			after[i] = dev.BytesMoved()
		}
		// New host-side input contents: the next run must re-upload it.
		gs.bufs[0].SetVersion(2)
		if err := RunGraph(ctx, gs); err != nil {
			t.Error(err)
		}
		after[2] = dev.BytesMoved()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run 1: input H2D + output D2H. Run 2: output only (input resident).
	// Run 3: input again (version bumped) + output.
	if after[0] != 2*bytes {
		t.Errorf("first run moved %d bytes, want %d (input+output only)", after[0], 2*bytes)
	}
	if d := after[1] - after[0]; d != bytes {
		t.Errorf("second run moved %d bytes, want %d (output only)", d, bytes)
	}
	if d := after[2] - after[1]; d != 2*bytes {
		t.Errorf("post-SetVersion run moved %d bytes, want %d", d, 2*bytes)
	}

	m := cl.CollectMetrics()
	if got := m.Int("graph.runs"); got != 3 {
		t.Errorf("graph.runs = %d, want 3", got)
	}
	if got := m.Int("graph.stages"); got != 9 {
		t.Errorf("graph.stages = %d, want 9", got)
	}
	// Chain hits: 2 intermediate edges per run; run 2 also skips the
	// conditional input upload.
	if got := m.Int("graph.resident_hits"); got != 7 {
		t.Errorf("graph.resident_hits = %d, want 7", got)
	}
	// Naive ships 6x per run (18x total); the graph moved 5x total.
	if got := m.Int("graph.bytes_moved_saved"); got != 13*bytes {
		t.Errorf("graph.bytes_moved_saved = %d, want %d", got, 13*int64(bytes))
	}
	if got := m.Int("mcl.bytes_moved"); got != 5*bytes {
		t.Errorf("mcl.bytes_moved = %d, want %d", got, 5*int64(bytes))
	}
}

// TestGraphBeatsNaive compares one graph run against the equivalent naive
// per-kernel launch sequence on identical clusters: the graph must finish
// earlier in virtual time and move at least 30% fewer bytes (the ISSUE
// acceptance floor; a three-stage chain actually saves 2/3).
func TestGraphBeatsNaive(t *testing.T) {
	const n = 1 << 22 // 16 MiB per buffer: transfers dominate
	run := func(graph bool) (simnet.Time, int64) {
		cl, _ := NewCluster(DefaultConfig(1, "k20"))
		cl.Register(mustKS(t, "scale", scaleKernel))
		gs := chainSpec("cmp", n, nil)
		_, end, err := cl.Run(func(ctx *satin.Context) any {
			if graph {
				return RunGraph(ctx, gs)
			}
			return gs.RunNaive(ctx)
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, cl.NodeState(0).Devices[0].BytesMoved()
	}
	gEnd, gBytes := run(true)
	nEnd, nBytes := run(false)
	if gEnd >= nEnd {
		t.Errorf("graph run not faster: %v vs naive %v", gEnd, nEnd)
	}
	if float64(gBytes) > 0.7*float64(nBytes) {
		t.Errorf("graph moved %d bytes, naive %d: reduction below 30%%", gBytes, nBytes)
	}
}

// TestGraphSplitsAcrossHeterogeneousDevices checks roofline partitioning: a
// data-parallel stage on a Xeon Phi + K20 node splits with the K20 taking
// the larger slice (it is ~4x faster), and both devices launch.
func TestGraphSplitsAcrossHeterogeneousDevices(t *testing.T) {
	const n = 1 << 22
	cfg := DefaultConfig(1, "k20")
	cfg.Nodes[0] = NodeSpec{Devices: []string{"xeon_phi", "k20"}}
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	gs := NewGraphSpec("split")
	a := gs.Input("a", 4*n)
	d := gs.Output("d", 4*n)
	gs.Stage(StageSpec{Kernel: "scale", Params: map[string]int64{"n": n},
		SplitParam: "n", Reads: []*GraphBuffer{a}, Writes: []*GraphBuffer{d}})
	_, _, err := cl.Run(func(ctx *satin.Context) any { return RunGraph(ctx, gs) })
	if err != nil {
		t.Fatal(err)
	}
	ns := cl.NodeState(0)
	phi, k20 := ns.Devices[0], ns.Devices[1]
	if phi.Launches() != 1 || k20.Launches() != 1 {
		t.Fatalf("launches phi=%d k20=%d, want one slice on each", phi.Launches(), k20.Launches())
	}
	// Slices (input upload + output readback) are proportional to predicted
	// throughput: the K20 must carry strictly more bytes than the Phi.
	if phi.BytesMoved() == 0 || k20.BytesMoved() <= phi.BytesMoved() {
		t.Errorf("slice bytes phi=%d k20=%d, want 0 < phi < k20", phi.BytesMoved(), k20.BytesMoved())
	}
	// Together the slices cover exactly input + output.
	if total := phi.BytesMoved() + k20.BytesMoved(); total != 8*n {
		t.Errorf("split moved %d bytes total, want %d", total, 8*int64(n))
	}
}

// TestGraphMatchesNaiveOutput is the differential test: under Verify, a
// graph run and the naive per-kernel sequence must produce byte-identical
// data — sequentially and with the simulation split over 4 partitions.
func TestGraphMatchesNaiveOutput(t *testing.T) {
	for _, parts := range []int{1, 4} {
		const n = 64
		run := func(graph bool) []float64 {
			arr := interp.NewFloatArray(n)
			for i := range arr.F {
				arr.F[i] = float64(i)
			}
			cfg := DefaultConfig(4, "k20")
			cfg.Verify = true
			cfg.Partitions = parts
			cl, _ := NewCluster(cfg)
			cl.Register(mustKS(t, "scale", scaleKernel))
			gs := chainSpec("diff", n, []any{int64(n), arr})
			_, _, err := cl.Run(func(ctx *satin.Context) any {
				if graph {
					return RunGraph(ctx, gs)
				}
				return gs.RunNaive(ctx)
			})
			if err != nil {
				t.Fatal(err)
			}
			return arr.F
		}
		got, want := run(true), run(false)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("partitions=%d: graph[%d] = %v, naive = %v", parts, i, got[i], want[i])
			}
		}
		// And both match the closed form of three chained scales.
		for i, v := range got {
			w := float64(i)
			for s := 0; s < 3; s++ {
				w = w*2 + 1
			}
			if v != w {
				t.Fatalf("partitions=%d: result[%d] = %v, want %v", parts, i, v, w)
			}
		}
	}
}

// TestGraphMetricsDeterministicAcrossPartitions runs a fleet of concurrent
// graph submissions across a 4-node cluster and byte-compares the full
// metric dump between the sequential kernel and 4 parallel partitions.
func TestGraphMetricsDeterministicAcrossPartitions(t *testing.T) {
	dump := func(parts int) string {
		cfg := DefaultConfig(4, "k20")
		cfg.Partitions = parts
		cl, _ := NewCluster(cfg)
		cl.Register(mustKS(t, "scale", scaleKernel))
		gs := chainSpec("det", 1<<18, nil)
		_, _, err := cl.Run(func(ctx *satin.Context) any {
			ctx.EnableManyCore()
			for i := 0; i < 8; i++ {
				ctx.Spawn(satin.JobDesc{Name: "leaf", InputBytes: 64, ResultBytes: 64},
					func(c *satin.Context) any {
						for it := 0; it < 3; it++ {
							if err := RunGraph(c, gs); err != nil {
								t.Error(err)
							}
						}
						return nil
					})
			}
			ctx.Sync()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl.CollectMetrics().Format()
	}
	seq := dump(1)
	par := dump(4)
	if seq != par {
		t.Errorf("sequential and -partitions 4 dumps differ:\nseq:\n%s\npar:\n%s", seq, par)
	}
	if !strings.Contains(seq, "graph.runs") {
		t.Error("metric dump lacks graph.runs")
	}
}

// TestGraphRejectsOversizedStage: a stage whose own working set exceeds the
// chosen device's memory (1 GiB in + 1 GiB out on a 1.5 GiB GTX480) fails at
// planning with an error naming the graph, the stage and the bytes, so the
// caller can take its CPU fallback as it does for an oversized launch. The
// device is never touched.
func TestGraphRejectsOversizedStage(t *testing.T) {
	const n = 1 << 28
	cl, _ := NewCluster(DefaultConfig(1, "gtx480"))
	cl.Register(mustKS(t, "scale", scaleKernel))
	gs := NewGraphSpec("huge")
	a := gs.Input("a", 4*n)
	d := gs.Output("d", 4*n)
	gs.Stage(StageSpec{Kernel: "scale", Params: map[string]int64{"n": n},
		Reads: []*GraphBuffer{a}, Writes: []*GraphBuffer{d}})
	_, _, err := cl.Run(func(ctx *satin.Context) any {
		if _, err := GetGraph(ctx, gs); err == nil {
			t.Error("GetGraph planned an oversized stage")
		}
		err := RunGraph(ctx, gs)
		if err == nil {
			t.Error("RunGraph ran an oversized stage")
			return nil
		}
		for _, want := range []string{"graph huge", "stage 0 (scale)", "2147483648 bytes"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := cl.NodeState(0).Devices[0]
	if dev.BytesMoved() != 0 || dev.MemUsed() != 0 || dev.Launches() != 0 {
		t.Fatalf("rejected stage used the device: %d bytes moved, %d bytes held, %d launches",
			dev.BytesMoved(), dev.MemUsed(), dev.Launches())
	}
}

// TestGraphConcurrentSubmission drives one shared graph from many leaves at
// once (across 2 partitions, for the -race run): submissions pipeline
// through the in-order queues and every run is counted.
func TestGraphConcurrentSubmission(t *testing.T) {
	cfg := DefaultConfig(2, "k20")
	cfg.Partitions = 2
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	gs := chainSpec("conc", 1<<16, nil)
	_, _, err := cl.Run(func(ctx *satin.Context) any {
		ctx.EnableManyCore()
		for i := 0; i < 8; i++ {
			ctx.Spawn(satin.JobDesc{Name: "leaf", InputBytes: 64, ResultBytes: 64},
				func(c *satin.Context) any {
					for it := 0; it < 4; it++ {
						if err := RunGraph(c, gs); err != nil {
							t.Error(err)
						}
					}
					return nil
				})
		}
		ctx.Sync()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.CollectMetrics().Int("graph.runs"); got != 32 {
		t.Errorf("graph.runs = %d, want 32", got)
	}
}

// TestGraphSpecValidation covers the builder's incremental checks and
// Validate/plan-time errors.
func TestGraphSpecValidation(t *testing.T) {
	buf := func(gs *GraphSpec, n string) *GraphBuffer { return gs.Input(n, 64) }
	cases := []struct {
		name  string
		build func() *GraphSpec
	}{
		{"no stages", func() *GraphSpec { return NewGraphSpec("g") }},
		{"duplicate buffer", func() *GraphSpec {
			gs := NewGraphSpec("g")
			buf(gs, "a")
			buf(gs, "a")
			o := gs.Output("o", 64)
			return gs.Stage(StageSpec{Kernel: "scale", Writes: []*GraphBuffer{o}})
		}},
		{"empty kernel", func() *GraphSpec {
			gs := NewGraphSpec("g")
			o := gs.Output("o", 64)
			return gs.Stage(StageSpec{Writes: []*GraphBuffer{o}})
		}},
		{"no writes", func() *GraphSpec {
			gs := NewGraphSpec("g")
			a := buf(gs, "a")
			return gs.Stage(StageSpec{Kernel: "scale", Reads: []*GraphBuffer{a}})
		}},
		{"writes input", func() *GraphSpec {
			gs := NewGraphSpec("g")
			a := buf(gs, "a")
			return gs.Stage(StageSpec{Kernel: "scale", Writes: []*GraphBuffer{a}})
		}},
		{"reads output", func() *GraphSpec {
			gs := NewGraphSpec("g")
			o := gs.Output("o", 64)
			o2 := gs.Output("o2", 64)
			gs.Stage(StageSpec{Kernel: "scale", Writes: []*GraphBuffer{o}})
			return gs.Stage(StageSpec{Kernel: "scale", Reads: []*GraphBuffer{o}, Writes: []*GraphBuffer{o2}})
		}},
		{"read before write", func() *GraphSpec {
			gs := NewGraphSpec("g")
			m := gs.Intermediate("m", 64)
			o := gs.Output("o", 64)
			return gs.Stage(StageSpec{Kernel: "scale", Reads: []*GraphBuffer{m}, Writes: []*GraphBuffer{o}})
		}},
		{"double writer", func() *GraphSpec {
			gs := NewGraphSpec("g")
			m := gs.Intermediate("m", 64)
			o := gs.Output("o", 64)
			gs.Stage(StageSpec{Kernel: "scale", Writes: []*GraphBuffer{m}})
			gs.Stage(StageSpec{Kernel: "scale", Writes: []*GraphBuffer{m}})
			return gs.Stage(StageSpec{Kernel: "scale", Reads: []*GraphBuffer{m}, Writes: []*GraphBuffer{o}})
		}},
		{"split param missing", func() *GraphSpec {
			gs := NewGraphSpec("g")
			o := gs.Output("o", 64)
			return gs.Stage(StageSpec{Kernel: "scale", SplitParam: "n", Writes: []*GraphBuffer{o}})
		}},
		{"never written", func() *GraphSpec {
			gs := NewGraphSpec("g")
			gs.Intermediate("m", 64)
			o := gs.Output("o", 64)
			return gs.Stage(StageSpec{Kernel: "scale", Writes: []*GraphBuffer{o}})
		}},
		{"foreign buffer", func() *GraphSpec {
			other := NewGraphSpec("other")
			x := other.Input("x", 64)
			gs := NewGraphSpec("g")
			o := gs.Output("o", 64)
			return gs.Stage(StageSpec{Kernel: "scale", Reads: []*GraphBuffer{x}, Writes: []*GraphBuffer{o}})
		}},
		{"non-positive size", func() *GraphSpec {
			gs := NewGraphSpec("g")
			o := gs.Output("o", 0)
			return gs.Stage(StageSpec{Kernel: "scale", Writes: []*GraphBuffer{o}})
		}},
	}
	for _, tc := range cases {
		if err := tc.build().Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad spec", tc.name)
		}
	}
}

// TestGraphPlanErrors covers failures only planning can see: unknown
// kernels and working sets that do not fit the device even after spilling.
func TestGraphPlanErrors(t *testing.T) {
	cl, _ := NewCluster(DefaultConfig(1, "gtx480"))
	cl.Register(mustKS(t, "scale", scaleKernel))
	unknown := NewGraphSpec("unknown")
	o := unknown.Output("o", 64)
	unknown.Stage(StageSpec{Kernel: "nosuch", Params: map[string]int64{"n": 16}, Writes: []*GraphBuffer{o}})

	// Persistent inputs alone exceed the 1.5 GiB GTX480: each stage's own
	// working set fits, but the resident inputs cannot.
	big := NewGraphSpec("big")
	const gig = 1 << 30
	in1 := big.Input("in1", gig)
	in2 := big.Input("in2", gig)
	o1 := big.Output("o1", 64<<20)
	o2 := big.Output("o2", 64<<20)
	p := map[string]int64{"n": 1 << 10}
	big.Stage(StageSpec{Kernel: "scale", Params: p, Reads: []*GraphBuffer{in1}, Writes: []*GraphBuffer{o1}})
	big.Stage(StageSpec{Kernel: "scale", Params: p, Reads: []*GraphBuffer{in2}, Writes: []*GraphBuffer{o2}})

	_, _, err := cl.Run(func(ctx *satin.Context) any {
		if _, err := GetGraph(ctx, unknown); err == nil {
			t.Error("unregistered kernel accepted")
		}
		if _, err := GetGraph(ctx, big); err == nil {
			t.Error("oversized persistent working set accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
