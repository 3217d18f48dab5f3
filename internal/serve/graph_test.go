package serve

import (
	"testing"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
)

const serveScaleSrc = `
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] * 2.0 + 1.0;
  }
}
`

// graphWorkload builds a one-tenant workload whose only job class is a
// three-stage chained dataflow graph (scale -> scale -> scale).
func graphWorkload(t testing.TB, rate float64) *Workload {
	t.Helper()
	ks, err := codegen.NewKernelSet("scale", serveScaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 16 // 256 KiB per buffer
	gs := core.NewGraphSpec("serve-chain")
	a := gs.Input("a", 4*n)
	b := gs.Intermediate("b", 4*n)
	c := gs.Intermediate("c", 4*n)
	d := gs.Output("d", 4*n)
	p := map[string]int64{"n": n}
	gs.Stage(core.StageSpec{Kernel: "scale", Params: p, Reads: []*core.GraphBuffer{a}, Writes: []*core.GraphBuffer{b}})
	gs.Stage(core.StageSpec{Kernel: "scale", Params: p, Reads: []*core.GraphBuffer{b}, Writes: []*core.GraphBuffer{c}})
	gs.Stage(core.StageSpec{Kernel: "scale", Params: p, Reads: []*core.GraphBuffer{c}, Writes: []*core.GraphBuffer{d}})
	in, out := gs.ExternalBytes()
	return &Workload{
		KernelSets: []*codegen.KernelSet{ks},
		Tenants: []TenantSpec{{
			Name: "graphs", Weight: 1,
			Arrival:    ArrivalSpec{Kind: Poisson, RatePerSec: rate},
			QueueLimit: 128,
			Mix: []JobClass{{
				Name: "chain", Graph: gs,
				InBytes: in, OutBytes: out,
				Flops: 3 * 2 * n, Weight: 1,
			}},
		}},
	}
}

// TestServeGraphClassEndToEnd runs a tenant whose requests are whole
// dataflow-graph executions: EstimateCosts must price the DAG, every
// completed request must correspond to one graph run, remote nodes must
// execute graphs through the dispatch protocol, and slots and batch servers
// run the graphs as steps, so the run makes fewer coroutine switches than
// it serves batches.
func TestServeGraphClassEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	w := graphWorkload(t, 200)
	if err := w.EstimateCosts("gtx480"); err != nil {
		t.Fatal(err)
	}
	if w.Tenants[0].Mix[0].CostHint <= 0 {
		t.Fatal("EstimateCosts left the graph class unpriced")
	}
	cl := testCluster(t, 2, 11, w)
	cfg := DefaultConfig(w)
	cfg.Horizon = 100 * time.Millisecond
	rep, err := Run(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no graph requests completed")
	}
	m := cl.CollectMetrics()
	rep.FillMetrics(m)
	if runs := m.Int("graph.runs"); runs != rep.Completed {
		t.Errorf("graph.runs = %d, completed = %d; want one DAG run per request", runs, rep.Completed)
	}
	if m.Int("graph.bytes_moved_saved") <= 0 {
		t.Error("graph runs saved no transfer bytes")
	}
	remote := int64(0)
	for _, d := range cl.NodeState(1).Devices {
		remote += d.Launches()
	}
	if remote == 0 {
		t.Error("remote node executed no graph stages")
	}
	if sw := cl.HostMetrics().Int("simnet.switches"); sw >= rep.Batches {
		t.Errorf("%d coroutine switches for %d batches: the graphs did not run as steps", sw, rep.Batches)
	}
}

// TestServeGraphClassCannotBatch pins the validation: a graph-valued class
// with a BatchParam is rejected both at estimation and at Run.
func TestServeGraphClassCannotBatch(t *testing.T) {
	w := graphWorkload(t, 10)
	w.Tenants[0].Mix[0].BatchParam = "n"
	if err := w.EstimateCosts("gtx480"); err == nil {
		t.Error("EstimateCosts accepted a batchable graph class")
	}
	cl := testCluster(t, 1, 1, w)
	cfg := DefaultConfig(w)
	cfg.Horizon = 10 * time.Millisecond
	if _, err := Run(cl, cfg); err == nil {
		t.Error("Run accepted a batchable graph class")
	}
}
