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
