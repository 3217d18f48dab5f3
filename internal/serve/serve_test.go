package serve

import (
	"strings"
	"testing"
	"time"

	"cashmere/internal/core"
)

// testCluster builds a small cluster with the standard workload's kernels
// registered.
func testCluster(t testing.TB, nodes int, seed int64, w *Workload) *core.Cluster {
	t.Helper()
	cfg := core.DefaultConfig(nodes, "gtx480")
	cfg.Seed = seed
	return testClusterConfig(t, cfg, w)
}

// testClusterConfig builds a cluster of cfg with the workload's kernels
// registered.
func testClusterConfig(t testing.TB, cfg core.Config, w *Workload) *core.Cluster {
	t.Helper()
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range w.KernelSets {
		if err := cl.Register(ks); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// runStandard runs the standard workload at the given offered-load factor
// on a fresh cluster and returns the report and the metrics dump.
func runStandard(t testing.TB, nodes int, seed int64, load float64, horizon time.Duration) (*Report, string) {
	t.Helper()
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := w.CapacityRPS("gtx480", nodes)
	if err != nil {
		t.Fatal(err)
	}
	w.ScaleRates(load * cap)
	cl := testCluster(t, nodes, seed, w)
	cfg := DefaultConfig(w)
	cfg.Horizon = horizon
	rep, err := Run(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cl.CollectMetrics()
	rep.FillMetrics(m)
	return rep, m.Format()
}

func TestServeDeterministicDump(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	_, dump1 := runStandard(t, 2, 42, 0.5, 200*time.Millisecond)
	_, dump2 := runStandard(t, 2, 42, 0.5, 200*time.Millisecond)
	if dump1 != dump2 {
		t.Fatalf("identical seeds produced different metrics dumps:\n--- run1\n%s--- run2\n%s", dump1, dump2)
	}
	for _, key := range []string{"serve.p50_ns", "serve.p95_ns", "serve.p99_ns", "serve.goodput_rps"} {
		if !strings.Contains(dump1, key) {
			t.Fatalf("metrics dump is missing %s:\n%s", key, dump1)
		}
	}
}

// TestServeRunsWithoutThieves: serving places its work with GoOn and spawns
// no stealable job, so Run starts no idle Satin workers and no node probes
// a victim (every probe ends in exactly one of steals_ok or
// steals_failed). Batches still cross the network to the remote nodes.
func TestServeRunsWithoutThieves(t *testing.T) {
	const nodes = 4
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := w.CapacityRPS("gtx480", nodes)
	if err != nil {
		t.Fatal(err)
	}
	w.ScaleRates(0.8 * cap)
	cl := testCluster(t, nodes, 1, w)
	cfg := DefaultConfig(w)
	cfg.Horizon = 200 * time.Millisecond
	rep, err := Run(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	m := cl.CollectMetrics()
	if got := m.Int("satin.steals_failed") + m.Int("satin.steals_ok"); got != 0 {
		t.Fatalf("%d steal probes in a serving run, want 0", got)
	}
	if got := m.Int("net.messages_sent"); got <= nodes-1 {
		t.Fatalf("%d messages sent: no batch reached a remote node", got)
	}
}

func TestServeModerateLoadMeetsSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	rep, _ := runStandard(t, 2, 1, 0.4, 300*time.Millisecond)
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Errors > 0 {
		t.Fatalf("%d launch errors at moderate load", rep.Errors)
	}
	// Accounting identities after drain.
	if rep.Offered != rep.Admitted+rep.ShedThrottle+rep.ShedQueue {
		t.Fatalf("offered %d != admitted %d + sheds %d+%d",
			rep.Offered, rep.Admitted, rep.ShedThrottle, rep.ShedQueue)
	}
	if rep.Admitted != rep.Completed+rep.Errors {
		t.Fatalf("admitted %d != completed %d + errors %d", rep.Admitted, rep.Completed, rep.Errors)
	}
	// Below saturation almost everything should meet the 50ms SLO.
	if frac := float64(rep.SLOOk) / float64(rep.Completed); frac < 0.95 {
		t.Fatalf("only %.1f%% of completions met the SLO at 0.4 load", 100*frac)
	}
	if rep.ShedFraction > 0.05 {
		t.Fatalf("shed fraction %.3f at 0.4 load, want ~0", rep.ShedFraction)
	}
}

func TestServeOverloadShedsAndStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	low, _ := runStandard(t, 2, 1, 0.3, 300*time.Millisecond)
	high, _ := runStandard(t, 2, 1, 2.5, 300*time.Millisecond)

	if high.ShedFraction < 0.2 {
		t.Fatalf("shed fraction %.3f at 2.5x load, want substantial shedding", high.ShedFraction)
	}
	if high.P99 <= low.P99 {
		t.Fatalf("p99 did not grow under overload: %d <= %d", high.P99, low.P99)
	}
	// Bounded queues: depth can never exceed the sum of the standard
	// workload's per-tenant limits (128 + 192 + 96).
	if high.MaxDepth > 128+192+96 {
		t.Fatalf("max queue depth %d exceeds the configured bounds", high.MaxDepth)
	}
	// The cluster keeps serving under overload (goodput does not collapse
	// to zero) and the accounting still balances.
	if high.Completed == 0 {
		t.Fatal("no completions under overload")
	}
	if high.Admitted != high.Completed+high.Errors {
		t.Fatalf("admitted %d != completed %d + errors %d under overload",
			high.Admitted, high.Completed, high.Errors)
	}
}

func TestServeBatchingEngagesUnderBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	rep, _ := runStandard(t, 1, 3, 2.0, 200*time.Millisecond)
	if rep.BatchedReqs == 0 {
		t.Fatal("no requests coalesced under 2x overload; batching is not engaging")
	}
}

// TestServeTracingRecordsSpansAndGauges checks that node-0 slots and remote
// slots settle batches through one path: every served request leaves one
// serve span carrying its serving node and batch size, on 1 and 2 nodes, for
// kernel classes and for graph classes (which never batch).
func TestServeTracingRecordsSpansAndGauges(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	for _, tc := range []struct {
		name  string
		nodes int
		graph bool
	}{
		{"standard/1node", 1, false},
		{"standard/2nodes", 2, false},
		{"graph/1node", 1, true},
		{"graph/2nodes", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w *Workload
			if tc.graph {
				w = graphWorkload(t, 200)
				if err := w.EstimateCosts("gtx480"); err != nil {
					t.Fatal(err)
				}
			} else {
				var err error
				if w, err = StandardWorkload(1); err != nil {
					t.Fatal(err)
				}
				cap, err := w.CapacityRPS("gtx480", tc.nodes)
				if err != nil {
					t.Fatal(err)
				}
				w.ScaleRates(0.5 * cap)
			}
			cfg := core.DefaultConfig(tc.nodes, "gtx480")
			cfg.Record = true
			cl, err := core.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ks := range w.KernelSets {
				if err := cl.Register(ks); err != nil {
					t.Fatal(err)
				}
			}
			scfg := DefaultConfig(w)
			scfg.Horizon = 100 * time.Millisecond
			rep, err := Run(cl, scfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := cl.Recorder()
			var serveSpans int
			perNode := make([]int, tc.nodes)
			for _, s := range rec.Spans() {
				if s.Kind != KindServe {
					continue
				}
				serveSpans++
				perNode[s.Node]++
				batch := ""
				for _, a := range s.Attrs {
					if a.Key == "batch" {
						batch = a.Val
					}
				}
				if batch == "" {
					t.Fatalf("serve span %q on node %d has no batch attribute", s.Label, s.Node)
				}
				if tc.graph && batch != "1" {
					t.Fatalf("graph-class span on node %d has batch=%s, want 1", s.Node, batch)
				}
			}
			if int64(serveSpans) != rep.Completed+rep.Errors {
				t.Fatalf("%d serve spans for %d dispatched requests", serveSpans, rep.Completed+rep.Errors)
			}
			t.Logf("%d serve spans, per node %v", serveSpans, perNode)
			for n, c := range perNode {
				if c == 0 {
					t.Fatalf("no serve spans on node %d (per node: %v)", n, perNode)
				}
			}
			if rec.CounterTotal(0, "serve.admitted") != rep.Admitted {
				t.Fatalf("admitted counter %d != report %d", rec.CounterTotal(0, "serve.admitted"), rep.Admitted)
			}
		})
	}
}

func TestWorkloadCapacityPositive(t *testing.T) {
	w, err := StandardWorkload(100)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := w.CapacityRPS("gtx480", 4)
	if err != nil {
		t.Fatal(err)
	}
	if cap <= 0 {
		t.Fatalf("capacity = %g", cap)
	}
	// Costs were filled in by the estimate.
	for _, tn := range w.Tenants {
		for _, c := range tn.Mix {
			if c.CostHint <= 0 {
				t.Fatalf("class %s has no cost hint after EstimateCosts", c.Name)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	w, err := StandardWorkload(100)
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster(t, 1, 1, w)
	if _, err := Run(cl, Config{}); err == nil {
		t.Fatal("Run with no tenants must fail")
	}
	if _, err := Run(cl, Config{Tenants: []TenantSpec{{Name: "x"}}, Horizon: time.Second}); err == nil {
		t.Fatal("Run with an empty mix must fail")
	}
}
