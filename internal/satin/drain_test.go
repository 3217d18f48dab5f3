package satin

import (
	"testing"
	"time"

	"cashmere/internal/network"
	"cashmere/internal/simnet"
)

// TestDrainMigratesQueuedJobsAndCompletes drains a node mid-computation:
// its queued stolen jobs migrate home, it stops stealing, and the result is
// still exact — a drained node never loses a job.
//
// Under the two-phase steal protocol a granted job normally goes straight
// to the probing worker and never rests in the thief's deque; a foreign job
// is deque-resident only when the grant arrives after the probe timed out
// (the comm loop's straggler path). The scenario makes one resident by
// construction, whatever the victim stream draws. A near-zero StealTimeout
// makes every grant a straggler. With two nodes, node 1's every probe goes
// to the master, so its first round of StealAttempts probes, sent while the
// master splits the root, brings home that many of the master's oldest
// (largest) jobs. Node 1's one worker runs the newest of them first, so the
// root's 32-leaf half still waits in its deque when the drain lands at
// 3 ms.
func TestDrainMigratesQueuedJobsAndCompletes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		k := simnet.NewKernel(seed)
		cfg := DefaultConfig()
		cfg.WorkersPerNode = 1
		cfg.StealTimeout = 100 * time.Nanosecond
		rt := New(k, 2, network.QDRInfiniBand(), cfg, nil)
		k.SpawnAt(simnet.Time(3*time.Millisecond), "drainer", func(p *simnet.Proc) {
			rt.DrainAsync(p, 1)
		})
		v, _ := rt.Run(func(ctx *Context) any {
			return divideAndCompute(ctx, 64, 500*time.Microsecond)
		})
		if v.(int) != 64 {
			t.Fatalf("seed %d: result after drain = %v, want 64", seed, v)
		}
		if rt.JobsMigrated() == 0 {
			t.Fatalf("seed %d: drained node migrated no jobs (nothing queued at drain time?)", seed)
		}
	}
}

// TestDrainThenUndrainKeepsResultExact cycles a node out of and back into
// rotation mid-run; the computation must be unaffected.
func TestDrainThenUndrainKeepsResultExact(t *testing.T) {
	k := simnet.NewKernel(7)
	rt := New(k, 4, network.QDRInfiniBand(), DefaultConfig(), nil)
	k.SpawnAt(simnet.Time(2*time.Millisecond), "drainer", func(p *simnet.Proc) {
		rt.DrainAsync(p, 2)
	})
	k.SpawnAt(simnet.Time(6*time.Millisecond), "undrainer", func(p *simnet.Proc) {
		rt.UndrainAsync(p, 2)
	})
	v, _ := rt.Run(func(ctx *Context) any {
		return divideAndCompute(ctx, 256, 200*time.Microsecond)
	})
	if v.(int) != 256 {
		t.Fatalf("result after drain/undrain = %v, want 256", v)
	}
}

// TestCrashAsyncReExecutesLostJobs is the message-driven crash path (used
// by the chaos harness): the victim's stolen jobs are re-queued by their
// owners off the node_down announcements and the result stays exact.
func TestCrashAsyncReExecutesLostJobs(t *testing.T) {
	k := simnet.NewKernel(5)
	rt := New(k, 4, network.QDRInfiniBand(), DefaultConfig(), nil)
	k.SpawnAt(simnet.Time(1*time.Millisecond), "crasher", func(p *simnet.Proc) {
		rt.CrashAsync(p, 3)
	})
	v, _ := rt.Run(func(ctx *Context) any {
		return divideAndCompute(ctx, 128, 500*time.Microsecond)
	})
	if v.(int) != 128 {
		t.Fatalf("result after crash = %v, want 128", v)
	}
	if rt.JobsReExecuted() == 0 {
		t.Fatal("the crash re-executed no jobs")
	}
}

// TestCorrelatedCrashesSurvive kills two nodes in one detection window —
// the correlated-crash shape of the chaos harness. The per-peer unicast of
// node_down announcements must reach every live owner even with part of
// the fleet gone, and the run must still complete exactly.
func TestCorrelatedCrashesSurvive(t *testing.T) {
	k := simnet.NewKernel(11)
	rt := New(k, 4, network.QDRInfiniBand(), DefaultConfig(), nil)
	k.SpawnAt(simnet.Time(1*time.Millisecond), "crasher", func(p *simnet.Proc) {
		rt.CrashAsync(p, 2)
		rt.CrashAsync(p, 3)
	})
	v, _ := rt.Run(func(ctx *Context) any {
		return divideAndCompute(ctx, 128, 500*time.Microsecond)
	})
	if v.(int) != 128 {
		t.Fatalf("result after correlated crash = %v, want 128", v)
	}
	if rt.JobsReExecuted() == 0 {
		t.Fatal("the crashes re-executed no jobs")
	}
}

// TestDrainMasterPanics: node 0 hosts the frontend and the root of the
// computation; draining or crashing it is a programming error.
func TestDrainMasterPanics(t *testing.T) {
	rt := testRuntime(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("draining master did not panic")
		}
	}()
	rt.DrainAsync(nil, 0)
}

func TestCrashMasterAsyncPanics(t *testing.T) {
	rt := testRuntime(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("crashing master did not panic")
		}
	}()
	rt.CrashAsync(nil, 0)
}
