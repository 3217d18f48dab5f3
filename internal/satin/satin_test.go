package satin

import (
	"testing"
	"time"

	"cashmere/internal/network"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

func testRuntime(nodes int, seed int64) *Runtime {
	k := simnet.NewKernel(seed)
	cfg := DefaultConfig()
	return New(k, nodes, network.QDRInfiniBand(), cfg, nil)
}

// fib spawns the classic D&C benchmark with a computational leaf.
func fib(ctx *Context, n int, leafWork simnet.Duration) int {
	if n < 2 {
		ctx.Compute(leafWork, "fib-leaf")
		return n
	}
	desc := JobDesc{Name: "fib", InputBytes: 64, ResultBytes: 16}
	a := ctx.Spawn(desc, func(c *Context) any { return fib(c, n-1, leafWork) })
	b := ctx.Spawn(desc, func(c *Context) any { return fib(c, n-2, leafWork) })
	ctx.Sync()
	if !ctx.Node().Alive() {
		return 0
	}
	return a.Value().(int) + b.Value().(int)
}

func TestFibSingleNode(t *testing.T) {
	rt := testRuntime(1, 1)
	v, _ := rt.Run(func(ctx *Context) any { return fib(ctx, 10, 10*time.Microsecond) })
	if v.(int) != 55 {
		t.Fatalf("fib(10) = %v, want 55", v)
	}
}

func TestFibMultiNodeCorrectness(t *testing.T) {
	for _, nodes := range []int{2, 4, 8} {
		rt := testRuntime(nodes, 7)
		v, _ := rt.Run(func(ctx *Context) any { return fib(ctx, 12, 20*time.Microsecond) })
		if v.(int) != 144 {
			t.Fatalf("%d nodes: fib(12) = %v, want 144", nodes, v)
		}
		if rt.StealsOK() == 0 {
			t.Fatalf("%d nodes: no successful steals", nodes)
		}
	}
}

// divideAndCompute spawns `leaves` leaf jobs of equal cost via binary
// division — the shape of every Cashmere application. A frame whose node
// crashed returns from Sync without its children's values; its owner
// re-executes the job elsewhere, so it returns a dummy.
func divideAndCompute(ctx *Context, leaves int, work simnet.Duration) int {
	if leaves == 1 {
		ctx.Compute(work, "leaf")
		return 1
	}
	l, r := leaves/2, leaves-leaves/2
	desc := JobDesc{Name: "part", InputBytes: 1 << 10, ResultBytes: 64}
	a := ctx.Spawn(desc, func(c *Context) any { return divideAndCompute(c, l, work) })
	b := ctx.Spawn(desc, func(c *Context) any { return divideAndCompute(c, r, work) })
	ctx.Sync()
	if !ctx.Node().Alive() {
		return 0
	}
	return a.Value().(int) + b.Value().(int)
}

func TestWorkStealingScalesAcrossNodes(t *testing.T) {
	elapsed := func(nodes int) simnet.Time {
		rt := testRuntime(nodes, 3)
		v, end := rt.Run(func(ctx *Context) any {
			return divideAndCompute(ctx, 256, 500*time.Microsecond)
		})
		if v.(int) != 256 {
			t.Fatalf("lost leaves: %v", v)
		}
		return end
	}
	t1 := elapsed(1)
	t4 := elapsed(4)
	t8 := elapsed(8)
	// 256 leaves x 500us = 128ms of work; 1 node has 8 workers => ~16ms.
	speedup4 := float64(t1) / float64(t4)
	speedup8 := float64(t1) / float64(t8)
	if speedup4 < 2.5 {
		t.Fatalf("4-node speedup = %.2f, want > 2.5 (t1=%v t4=%v)", speedup4, t1, t4)
	}
	if speedup8 < 4 {
		t.Fatalf("8-node speedup = %.2f, want > 4 (t1=%v t8=%v)", speedup8, t1, t8)
	}
	if speedup8 < speedup4 {
		t.Fatalf("speedup not monotone: %v vs %v", speedup8, speedup4)
	}
}

func TestEightWorkersPerNodeUsed(t *testing.T) {
	// 8 independent leaves on one node must run ~concurrently on the 8
	// workers (the paper: Satin needs 8 jobs to keep one node busy).
	rt := testRuntime(1, 1)
	_, end := rt.Run(func(ctx *Context) any {
		return divideAndCompute(ctx, 8, 1*time.Millisecond)
	})
	if end > simnet.Time(3*time.Millisecond) {
		t.Fatalf("8 leaves on 8 workers took %v, want ~1ms", end)
	}
}

func TestManyCoreModeSpawnsConcurrentThreads(t *testing.T) {
	// In many-core mode, spawns become node-local threads that overlap in
	// virtual time even with one worker.
	k := simnet.NewKernel(1)
	cfg := DefaultConfig()
	cfg.WorkersPerNode = 1
	rt := New(k, 1, network.QDRInfiniBand(), cfg, nil)
	_, end := rt.Run(func(ctx *Context) any {
		ctx.EnableManyCore()
		var ps []*Promise
		for i := 0; i < 4; i++ {
			ps = append(ps, ctx.Spawn(JobDesc{Name: "t"}, func(c *Context) any {
				c.Proc().Hold(10 * time.Millisecond) // e.g. waiting on a device
				return 1
			}))
		}
		ctx.Sync()
		sum := 0
		for _, p := range ps {
			sum += p.Value().(int)
		}
		return sum
	})
	if end > simnet.Time(11*time.Millisecond) {
		t.Fatalf("many-core threads serialized: %v", end)
	}
}

func TestManyCoreJobsAreNotStealable(t *testing.T) {
	rt := testRuntime(2, 1)
	rt.Run(func(ctx *Context) any {
		ctx.EnableManyCore()
		p := ctx.Spawn(JobDesc{Name: "local"}, func(c *Context) any {
			return c.NodeID()
		})
		ctx.Sync()
		if got := p.Value().(int); got != 0 {
			t.Errorf("many-core job ran on node %d, want 0", got)
		}
		return nil
	})
	if rt.StealsOK() != 0 {
		t.Fatalf("many-core jobs were stolen (%d)", rt.StealsOK())
	}
}

func TestManyCoreInheritedByChildren(t *testing.T) {
	rt := testRuntime(1, 1)
	rt.Run(func(ctx *Context) any {
		ctx.EnableManyCore()
		p := ctx.Spawn(JobDesc{}, func(c *Context) any { return c.ManyCore() })
		ctx.Sync()
		if !p.Value().(bool) {
			t.Error("child frame lost many-core mode")
		}
		return nil
	})
}

func TestPromiseBeforeSyncPanics(t *testing.T) {
	rt := testRuntime(1, 1)
	rt.Run(func(ctx *Context) any {
		p := ctx.Spawn(JobDesc{Name: "slow"}, func(c *Context) any {
			c.Proc().Hold(time.Millisecond)
			return 1
		})
		defer func() {
			if recover() == nil {
				t.Error("Promise.Value before Sync did not panic")
			}
			ctx.Sync()
		}()
		_ = p.Value()
		return nil
	})
}

func TestSharedObjectBroadcast(t *testing.T) {
	k := simnet.NewKernel(2)
	rt := New(k, 4, network.QDRInfiniBand(), DefaultConfig(), nil)
	type counter struct{ v int }
	obj := rt.NewShared("centroids",
		func(node int) any { return &counter{} },
		func(node int, replica, args any) { replica.(*counter).v += args.(int) })
	rt.Run(func(ctx *Context) any {
		obj.Invoke(ctx, 1024, 5)
		// Give the broadcast time to reach all replicas.
		ctx.Proc().Hold(2 * time.Millisecond)
		return nil
	})
	for i := 0; i < 4; i++ {
		if got := obj.Local(i).(*counter).v; got != 5 {
			t.Fatalf("replica %d = %d, want 5", i, got)
		}
	}
}

func TestStealOldestTakesBiggestJob(t *testing.T) {
	// With steal-oldest the thief gets the first-pushed (largest) job; the
	// ablation flag flips that to the newest.
	for _, oldest := range []bool{true, false} {
		k := simnet.NewKernel(1)
		cfg := DefaultConfig()
		cfg.StealOldest = oldest
		rt := New(k, 1, network.QDRInfiniBand(), cfg, nil)
		n := rt.Node(0)
		j1 := &Job{ID: 1, Desc: JobDesc{Name: "old"}}
		j2 := &Job{ID: 2, Desc: JobDesc{Name: "new"}}
		n.deque = append(n.deque, j1, j2)
		got := n.popSteal()
		want := "old"
		if !oldest {
			want = "new"
		}
		if got.Desc.Name != want {
			t.Fatalf("StealOldest=%v stole %q, want %q", oldest, got.Desc.Name, want)
		}
	}
}

func TestTraceRecordsCPUAndStealSpans(t *testing.T) {
	k := simnet.NewKernel(9)
	rec := trace.New()
	rt := New(k, 2, network.QDRInfiniBand(), DefaultConfig(), rec)
	rt.Run(func(ctx *Context) any {
		return divideAndCompute(ctx, 32, 200*time.Microsecond)
	})
	var cpu, steal int
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.KindCPU:
			cpu++
		case trace.KindSteal:
			steal++
		}
	}
	if cpu == 0 {
		t.Fatal("no CPU spans recorded")
	}
	if steal == 0 {
		t.Fatal("no steal spans recorded")
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := testRuntime(2, 4)
	rt.Run(func(ctx *Context) any {
		return divideAndCompute(ctx, 64, 100*time.Microsecond)
	})
	// 64 leaves => 63 internal division jobs x2 spawns... at minimum 126.
	if rt.JobsSpawned() < 126 || rt.JobsExecuted() < 126 {
		t.Fatalf("spawned=%d executed=%d", rt.JobsSpawned(), rt.JobsExecuted())
	}
	if rt.JobsExecuted() != rt.JobsSpawned() {
		t.Fatalf("executed %d != spawned %d", rt.JobsExecuted(), rt.JobsSpawned())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, simnet.Time) {
		rt := testRuntime(4, 42)
		_, end := rt.Run(func(ctx *Context) any {
			return divideAndCompute(ctx, 100, 300*time.Microsecond)
		})
		return rt.StealsOK(), end
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", s1, e1, s2, e2)
	}
}
