package serve

import (
	"testing"
	"time"

	"cashmere/internal/core"
)

// runStandardPartitioned is runStandard with an explicit partition layout.
func runStandardPartitioned(t testing.TB, nodes, partitions int) (*Report, string) {
	t.Helper()
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := w.CapacityRPS("gtx480", nodes)
	if err != nil {
		t.Fatal(err)
	}
	w.ScaleRates(0.5 * cap)
	cfg := core.DefaultConfig(nodes, "gtx480")
	cfg.Seed = 42
	cfg.Partitions = partitions
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
	scfg.Horizon = 150 * time.Millisecond
	rep, err := Run(cl, scfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cl.CollectMetrics()
	rep.FillMetrics(m)
	return rep, rep.Format() + m.Format()
}

// TestServePartitionedTrajectoryIdentity asserts the serving layer's
// determinism contract across partition layouts: the report and the full
// metric dump must be byte-identical for the sequential kernel and the
// parallel partitioned scheduler.
func TestServePartitionedTrajectoryIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	_, seq := runStandardPartitioned(t, 4, 1)
	for _, parts := range []int{4, 2} {
		if _, got := runStandardPartitioned(t, 4, parts); got != seq {
			t.Errorf("parallel-%d diverged from sequential:\n-- sequential --\n%s\n-- parallel-%d --\n%s",
				parts, seq, parts, got)
		}
	}
}

// TestServeRemoteNodesDoWork checks that the remote-dispatch protocol really
// places launches on non-master nodes (each node's device scheduler reports
// its own launches).
func TestServeRemoteNodesDoWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := w.CapacityRPS("gtx480", 4)
	if err != nil {
		t.Fatal(err)
	}
	w.ScaleRates(0.8 * cap)
	cfg := core.DefaultConfig(4, "gtx480")
	cfg.Seed = 7
	cfg.Partitions = 4
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
	scfg.Horizon = 150 * time.Millisecond
	rep, err := Run(cl, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	remote := 0
	for n := 1; n < 4; n++ {
		for _, d := range cl.NodeState(n).Devices {
			if d.Launches() > 0 {
				remote++
			}
		}
	}
	if remote == 0 {
		t.Fatal("remote nodes executed no launches; proxy protocol is not dispatching")
	}
}

// TestServeSVMTransport: under the SVM transport a launch's page acquires
// block, so slots and batch servers run every batch on a coroutine (a
// node-0 slot hands back from its steps, a remote node uses GoLocal). The
// run must still serve every admitted request, fault pages in, and give
// the same dump at every partition layout.
func TestServeSVMTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	run := func(partitions int) (*Report, string) {
		w, err := StandardWorkload(1)
		if err != nil {
			t.Fatal(err)
		}
		cap, err := w.CapacityRPS("gtx480", 3)
		if err != nil {
			t.Fatal(err)
		}
		w.ScaleRates(0.7 * cap)
		cfg := core.DefaultConfig(3, "gtx480")
		cfg.Transport = core.TransportSVM
		cfg.Partitions = partitions
		cl := testClusterConfig(t, cfg, w)
		scfg := DefaultConfig(w)
		scfg.Horizon = 100 * time.Millisecond
		rep, err := Run(cl, scfg)
		if err != nil {
			t.Fatal(err)
		}
		m := cl.CollectMetrics()
		rep.FillMetrics(m)
		if m.Int("svm.faults") == 0 {
			t.Fatal("no page faulted in under the SVM transport")
		}
		return rep, rep.Format() + m.Format()
	}
	rep, seq := run(1)
	if rep.Completed != rep.Admitted || rep.Errors != 0 || rep.Completed == 0 {
		t.Fatalf("completed %d of %d admitted, %d errors", rep.Completed, rep.Admitted, rep.Errors)
	}
	if _, par := run(3); par != seq {
		t.Errorf("3 partitions diverged from sequential:\n-- sequential --\n%s\n-- parallel --\n%s", seq, par)
	}
}
