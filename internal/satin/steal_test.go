package satin

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"cashmere/internal/network"
	"cashmere/internal/simnet"
)

// TestLargeJobStealSurvivesGrantPhase checks the two-phase steal protocol:
// a job with a multi-hundred-megabyte input takes far longer to transfer
// than the grant timeout, yet the thief must receive and run it exactly
// once (no bounce, no duplicate transfer).
func TestLargeJobStealSurvivesGrantPhase(t *testing.T) {
	k := simnet.NewKernel(3)
	cfg := DefaultConfig()
	cfg.WorkersPerNode = 1
	rt := New(k, 2, network.QDRInfiniBand(), cfg, nil)
	const inputBytes = 800 << 20 // ~250ms of wire, >> StealTimeout
	ran := 0
	v, _ := rt.Run(func(ctx *Context) any {
		p := ctx.Spawn(JobDesc{Name: "big", InputBytes: inputBytes, ResultBytes: 64},
			func(c *Context) any {
				ran++
				c.Proc().Hold(time.Millisecond)
				return c.NodeID()
			})
		// Keep the master busy so node 1 steals the job.
		ctx.Proc().Hold(500 * time.Millisecond)
		ctx.Sync()
		return p.Value()
	})
	if ran != 1 {
		t.Fatalf("job ran %d times, want exactly once", ran)
	}
	if v.(int) != 1 {
		t.Fatalf("job ran on node %v, want stolen by node 1", v)
	}
	if rt.StealsOK() != 1 {
		t.Fatalf("StealsOK = %d", rt.StealsOK())
	}
	// The input must have crossed the wire exactly once (plus control
	// messages): total fabric traffic stays well under 2x the input.
	if got := rt.Fabric().BytesSent(); got > inputBytes*3/2 {
		t.Fatalf("fabric moved %d bytes for a %d byte job (duplicated transfer?)", got, inputBytes)
	}
}

// TestNoJobsLostUnderChurn floods a small cluster with many tiny jobs and
// checks the spawn/execute accounting balances — the regression test for
// the late-steal-reply job-loss bug.
func TestNoJobsLostUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		k := simnet.NewKernel(seed)
		cfg := DefaultConfig()
		cfg.StealTimeout = 50 * time.Microsecond // aggressive: force timeout races
		rt := New(k, 4, network.QDRInfiniBand(), cfg, nil)
		v, _ := rt.Run(func(ctx *Context) any {
			return divideAndCompute(ctx, 200, 100*time.Microsecond)
		})
		if v.(int) != 200 {
			t.Fatalf("seed %d: completed %v/200 leaves (job lost)", seed, v)
		}
	}
}

// overdue is the panic of runWithin's watchdog.
type overdue struct{}

// runWithin is rt.Run(main) with a watchdog: when main has not returned by
// virtual time limit, the run stops with an error instead of going on.
func runWithin(rt *Runtime, limit simnet.Duration, main func(ctx *Context) any) (v any, err error) {
	rt.k.SpawnAt(simnet.Time(limit), "watchdog", func(*simnet.Proc) {
		if !rt.nodes[0].done {
			panic(overdue{})
		}
	})
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(overdue); !ok {
				panic(r)
			}
			err = fmt.Errorf("main still running after %v of virtual time: %d of %d jobs executed, %d steals", limit, rt.JobsExecuted(), rt.JobsSpawned(), rt.StealsOK())
		}
	}()
	v, _ = rt.Run(main)
	return v, nil
}

// TestLateGrantedJobIsNotStolenBack: with a grant timeout far below the
// network latency every grant arrives after its thief gave up, and the job
// rests in the thief's deque. Its owner must not steal it back from there:
// on two nodes with one worker each, owner and thief used to pass such a
// job back and forth forever, each grant landing just after the other's
// probe timed out.
func TestLateGrantedJobIsNotStolenBack(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		k := simnet.NewKernel(seed)
		cfg := DefaultConfig()
		cfg.WorkersPerNode = 1
		cfg.StealTimeout = 100 * time.Nanosecond
		rt := New(k, 2, network.QDRInfiniBand(), cfg, nil)
		v, err := runWithin(rt, time.Minute, func(ctx *Context) any {
			return divideAndCompute(ctx, 100, 100*time.Microsecond)
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v.(int) != 100 || rt.JobsExecuted() != rt.JobsSpawned() {
			t.Fatalf("seed %d: result %v, executed %d of %d jobs; want 100 and all", seed, v, rt.JobsExecuted(), rt.JobsSpawned())
		}
	}
}

// forEachShape runs body over the seeds and cluster shapes of the job
// conservation properties: node count, workers per node, and a grant
// timeout from far below the network latency (every grant a straggler) to
// the default.
func forEachShape(body func(seed int64, cfg Config, nodes int, shape string)) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, nodes := range []int{2, 3, 5, 8} {
			for _, workers := range []int{1, 2, 4} {
				for _, timeout := range []simnet.Duration{100 * time.Nanosecond, 50 * time.Microsecond, 2 * time.Millisecond} {
					cfg := DefaultConfig()
					cfg.WorkersPerNode = workers
					cfg.StealTimeout = timeout
					body(seed, cfg, nodes, fmt.Sprintf("seed %d, %d nodes x %d workers, timeout %v", seed, nodes, workers, timeout))
				}
			}
		}
	}
}

// TestJobConservationProperty: over seeds and cluster shapes, a
// divide-and-conquer run gives the exact result and executes every spawned
// job exactly once.
func TestJobConservationProperty(t *testing.T) {
	forEachShape(func(seed int64, cfg Config, nodes int, shape string) {
		rt := New(simnet.NewKernel(seed), nodes, network.QDRInfiniBand(), cfg, nil)
		v, err := runWithin(rt, time.Minute, func(ctx *Context) any {
			return divideAndCompute(ctx, 100, 100*time.Microsecond)
		})
		if err != nil {
			t.Errorf("%s: %v", shape, err)
			return
		}
		if v.(int) != 100 {
			t.Fatalf("%s: result %v, want 100", shape, v)
		}
		if rt.JobsExecuted() != rt.JobsSpawned() {
			t.Fatalf("%s: executed %d jobs, spawned %d", shape, rt.JobsExecuted(), rt.JobsSpawned())
		}
	})
}

// TestJobConservationUnderFaultsProperty: over the same seeds and shapes,
// with random drain/undrain schedules and crashes at random virtual times,
// a divide-and-conquer run still gives the exact result; between any two
// events no job sits in two deques at once; no draining node starts a
// steal probe (one already in flight when the drain arrives may finish);
// and a run without a crash executes every spawned job exactly once.
func TestJobConservationUnderFaultsProperty(t *testing.T) {
	var migrated, reexecuted int64
	forEachShape(func(seed int64, cfg Config, nodes int, shape string) {
		k := simnet.NewKernel(seed)
		rt := New(k, nodes, network.QDRInfiniBand(), cfg, nil)
		at := func(d simnet.Duration, name string, fn func(p *simnet.Proc)) {
			shape += fmt.Sprintf(", %s at %v", name, d)
			k.SpawnAt(simnet.Time(d), name, fn)
		}
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(nodes*100+cfg.WorkersPerNode*10) + int64(cfg.StealTimeout)))
		crashes := false
		for id := 1; id < nodes; id++ {
			if rng.Intn(2) == 0 {
				drain := simnet.Duration(rng.Int63n(int64(3 * time.Millisecond)))
				at(drain, fmt.Sprintf("drain %d", id), func(p *simnet.Proc) { rt.DrainAsync(p, id) })
				if rng.Intn(2) == 0 {
					undrain := drain + simnet.Duration(rng.Int63n(int64(2*time.Millisecond)))
					at(undrain, fmt.Sprintf("undrain %d", id), func(p *simnet.Proc) { rt.UndrainAsync(p, id) })
				}
			}
			if rng.Intn(4) == 0 {
				crashes = true
				crash := simnet.Duration(rng.Int63n(int64(3 * time.Millisecond)))
				at(crash, fmt.Sprintf("crash %d", id), func(p *simnet.Proc) { rt.CrashAsync(p, id) })
			}
		}
		w := &faultWatch{rt: rt, draining: make([]bool, nodes), probes: map[*thief]probeID{}, queued: map[*Job]int{}}
		k.SetTracer(w)
		v, err := runWithin(rt, time.Minute, func(ctx *Context) any {
			return divideAndCompute(ctx, 100, 100*time.Microsecond)
		})
		if err != nil {
			t.Errorf("%s: %v", shape, err)
			return
		}
		if w.err != nil {
			t.Errorf("%s: %v", shape, w.err)
			return
		}
		if v.(int) != 100 {
			t.Fatalf("%s: result %v, want 100", shape, v)
		}
		if !crashes && rt.JobsExecuted() != rt.JobsSpawned() {
			t.Fatalf("%s: executed %d jobs, spawned %d", shape, rt.JobsExecuted(), rt.JobsSpawned())
		}
		migrated += rt.JobsMigrated()
		reexecuted += rt.JobsReExecuted()
	})
	// The schedules must reach work in flight, or the checks above hold
	// vacuously.
	if migrated == 0 || reexecuted == 0 {
		t.Fatalf("%d jobs migrated and %d re-executed over all runs, want both above 0", migrated, reexecuted)
	}
}

// faultWatch checks the deques and thieves of a single-kernel run before
// every event the kernel dispatches, as its scheduling tracer. It keeps the
// first violation in err.
type faultWatch struct {
	rt       *Runtime
	draining []bool             // each node's draining flag at the previous check
	probes   map[*thief]probeID // the probe each probing thief was in at the previous check
	queued   map[*Job]int       // scratch: the node whose deque holds each job
	err      error
}

// probeID tells one steal probe of a thief from the next: a round's
// probes differ in attempt, and rounds begin at different times.
type probeID struct {
	attempt int
	start   simnet.Time
}

func (w *faultWatch) ProcSlice(string, int, simnet.Time, simnet.Time) {}

func (w *faultWatch) QueueDepth(now simnet.Time, _ int) {
	if w.err != nil {
		return
	}
	clear(w.queued)
	for _, n := range w.rt.nodes {
		for _, j := range n.deque {
			if at, dup := w.queued[j]; dup {
				w.err = fmt.Errorf("at %v job %#x is queued on node %d and on node %d", now, j.ID, at, n.ID)
				return
			}
			w.queued[j] = n.ID
		}
		for _, t := range n.thieves {
			if !t.pending {
				delete(w.probes, t)
				continue
			}
			id := probeID{t.attempt, t.probeStart}
			if last, ok := w.probes[t]; (!ok || last != id) && w.draining[n.ID] {
				w.err = fmt.Errorf("node %d, draining, started a steal probe at %v (thief %d)", n.ID, t.probeStart, t.key)
				return
			}
			w.probes[t] = id
		}
		w.draining[n.ID] = n.draining
	}
}

// TestGrantSentinelNeverEscapes ensures the internal grant marker is not
// observable as a runnable job.
func TestGrantSentinelNeverEscapes(t *testing.T) {
	if jobGranted.fn != nil || jobGranted.Desc.Name != "" {
		t.Fatal("grant sentinel must be inert")
	}
}

// TestVictimProbeDoesNotAllocate: a steal probe draws from the node's cached
// live-peer list, so picking a victim costs no allocation.
func TestVictimProbeDoesNotAllocate(t *testing.T) {
	n := testRuntime(8, 1).nodes[0]
	if a := testing.AllocsPerRun(1000, func() { n.victim() }); a != 0 {
		t.Fatalf("victim allocates %v times per probe, want 0", a)
	}
}

// TestFailedStealDoesNotAllocate: a failed probe sends the thief's
// preallocated request and is answered with the denial it carries, both as
// pointers, so an idle cluster probing for work allocates nothing per
// probe. The process-wide malloc count is read over consecutive windows of
// a running simulation, after a warm-up that builds every worker's probe
// state. The idle backoff is capped at 1ms, Cashmere's setting, so the
// thieves keep probing at a steady rate instead of backing off to silence.
// An allocation per probe would show in every window (each holds at least
// 500 probes), while a stray allocation of another goroutine lands in only
// some, so the quietest window must have allocated nothing.
func TestFailedStealDoesNotAllocate(t *testing.T) {
	const windows = 5
	cfg := DefaultConfig()
	cfg.MaxIdleBackoff = time.Millisecond
	rt := New(simnet.NewKernel(1), 4, network.QDRInfiniBand(), cfg, nil)
	var mallocs [windows]uint64
	var probes [windows]int64
	rt.Run(func(ctx *Context) any {
		ctx.Compute(time.Millisecond, "warm-up")
		var before, after runtime.MemStats
		for w := range windows {
			failed := rt.StealsFailed()
			runtime.ReadMemStats(&before)
			ctx.Proc().Hold(20 * time.Millisecond)
			runtime.ReadMemStats(&after)
			mallocs[w], probes[w] = after.Mallocs-before.Mallocs, rt.StealsFailed()-failed
		}
		return nil
	})
	if n := slices.Min(probes[:]); n < 500 {
		t.Fatalf("only %d failed probes in a window (%v); the test needs an idle, probing cluster", n, probes)
	}
	if m := slices.Min(mallocs[:]); m != 0 {
		t.Fatalf("every window allocated: %v allocations over %v failed probes, want a window with 0", mallocs, probes)
	}
}

// BenchmarkFailedProbe measures what a failed steal probe costs the event
// loop. An idle 4-node cluster runs one worker per node, so nodes 1–3 each
// run one thief while the master's worker holds in main, with the idle
// backoff capped at 1ms as in TestFailedStealDoesNotAllocate (a thief then
// starts a round of probes every 1.92ms). Each iteration is one 10ms
// virtual window of probing, after a warm-up that brings every thief to
// the cap. It reports the events and stale wakes per failed probe, and
// must allocate nothing (make bench-allocs).
func BenchmarkFailedProbe(b *testing.B) {
	cfg := DefaultConfig()
	cfg.WorkersPerNode = 1
	cfg.MaxIdleBackoff = time.Millisecond
	rt := New(simnet.NewKernel(1), 4, network.QDRInfiniBand(), cfg, nil)
	var events, stale, probes int64
	rt.Run(func(ctx *Context) any {
		ctx.Compute(10*time.Millisecond, "warm-up")
		st, failed := rt.Scheduler().AggregateKernelStats(), rt.StealsFailed()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			ctx.Proc().Hold(10 * time.Millisecond)
		}
		b.StopTimer()
		end := rt.Scheduler().AggregateKernelStats()
		events, stale, probes = end.Events-st.Events, end.Stale-st.Stale, rt.StealsFailed()-failed
		return nil
	})
	if probes == 0 {
		b.Fatal("no failed probes: the benchmark needs an idle, probing cluster")
	}
	b.ReportMetric(float64(events)/float64(probes), "events/probe")
	b.ReportMetric(float64(stale)/float64(probes), "stale/probe")
}

// TestVictimNeverPicksDeadPeer: once a node learns from a node_down
// announcement that a peer is down, its cached peer list drops the peer, and
// no later probe targets it.
func TestVictimNeverPicksDeadPeer(t *testing.T) {
	rt := testRuntime(4, 5)
	warm := false
	rt.Run(func(ctx *Context) any {
		// The idle nodes probe for work while the root computes.
		ctx.Compute(time.Millisecond, "warm")
		warm = rt.nodes[1].peers != nil && rt.nodes[2].peers != nil
		rt.CrashAsync(ctx.p, 3)
		ctx.Compute(time.Millisecond, "detect")
		return nil
	})
	if !warm {
		t.Fatal("nodes 1 and 2 had not probed before the crash")
	}
	for _, n := range rt.nodes[:3] {
		if !n.peerDown[3] {
			t.Fatalf("node %d never learned that node 3 died", n.ID)
		}
		for i := 0; i < 1000; i++ {
			if id := n.victim(); id == 3 || id == n.ID || id < 0 {
				t.Fatalf("node %d picked victim %d after node 3 died", n.ID, id)
			}
		}
	}
}

// probeWatch records, as a kernel's scheduling tracer, how long each probe
// of one thief lasted: from its request send to the step that ended it. A
// step of the thief's process ends with a ProcSlice at the time of that
// step, so the watch sees every probe end at the time it happened.
type probeWatch struct {
	n       *Node
	seq     uint64
	pending bool
	start   simnet.Time
	lasted  []simnet.Duration
	most    int // the most jobs the node's deque held before any event
}

func (w *probeWatch) ProcSlice(_ string, _ int, _, end simnet.Time) {
	t := w.n.thieves[0]
	if t == nil {
		return
	}
	if w.pending && (t.seq != w.seq || !t.pending) {
		w.lasted = append(w.lasted, simnet.Duration(end-w.start))
	}
	w.seq, w.pending, w.start = t.seq, t.pending, t.probeStart
}

func (w *probeWatch) QueueDepth(simnet.Time, int) { w.most = max(w.most, len(w.n.deque)) }

// TestLateStealReplyKeepsJob: a grant that reaches the thief after its probe
// timed out still delivers the job, and ends no other probe. Node 1's one
// worker probes node 0, whose root spawns one job and computes; StealTimeout
// is set below the round trip of a request and its answer, so every probe
// times out, and every grant, job and denial arrives late.
//   - backing-off: with one probe per round the thief is backing off when
//     the grant and the job arrive, so node 1's comm loop queues the job in
//     its own deque, where the thief finds it after the backoff.
//   - next-probe: with two probes per round the same thief's second probe
//     is waiting when they arrive. They answer the first probe, not the
//     second, so the job goes to the deque all the same and the second
//     probe waits out its own timeout.
//
// In both no steal succeeds, and no probe ends before its timeout: the
// answer to its own request cannot come sooner, so an earlier end would be
// another probe's reply taken as its own.
func TestLateStealReplyKeepsJob(t *testing.T) {
	for _, c := range []struct {
		name     string
		attempts int
	}{
		{"backing-off", 1},
		{"next-probe", 2},
	} {
		cfg := DefaultConfig()
		cfg.WorkersPerNode = 1
		cfg.StealTimeout = 15 * time.Microsecond
		cfg.StealAttempts = c.attempts
		cfg.StealBackoff = time.Millisecond
		k := simnet.NewKernel(1)
		rt := New(k, 2, network.QDRInfiniBand(), cfg, nil)
		thief := rt.nodes[1]
		w := &probeWatch{n: thief}
		k.SetTracer(w)
		var failedBefore int64
		v, _ := rt.Run(func(ctx *Context) any {
			job := ctx.Spawn(JobDesc{Name: "late", InputBytes: 64, ResultBytes: 16}, func(jc *Context) any {
				failedBefore = jc.Node().stealsFailed
				jc.Compute(time.Microsecond, "leaf")
				return jc.NodeID()
			})
			ctx.Compute(10*time.Millisecond, "root")
			ctx.Sync()
			return job.Value()
		})
		if v.(int) != 1 {
			t.Fatalf("%s: the job ran on node %v, want node 1", c.name, v)
		}
		if failedBefore < int64(c.attempts) {
			t.Fatalf("%s: %d probes of node 1 failed before the job ran, want its first round's %d", c.name, failedBefore, c.attempts)
		}
		if thief.stealsOK != 0 || w.most != 1 || thief.jobsExecuted != 1 {
			t.Fatalf("%s: %d steals succeeded, the deque held at most %d jobs and node 1 ran %d; want 0, 1 and 1",
				c.name, thief.stealsOK, w.most, thief.jobsExecuted)
		}
		if len(w.lasted) < 2*c.attempts {
			t.Fatalf("%s: saw %d probes end, want at least two rounds' worth", c.name, len(w.lasted))
		}
		for i, d := range w.lasted {
			if d < cfg.StealTimeout {
				t.Fatalf("%s: probe %d ended after %v, before its %v timeout, on another probe's reply", c.name, i+1, d, cfg.StealTimeout)
			}
		}
	}
}
