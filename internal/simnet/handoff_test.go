package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// randomWorkload spawns a mesh of processes that hold, exchange messages over
// shared channels and contend on resources, driven by per-process RNGs that
// are independent of the kernel and of the scheduler. Every step appends a
// "name@time#step" record to trace; because the token discipline serializes
// processes, the trace is a faithful wake trajectory.
func randomWorkload(k *Kernel, seed int64, trace *[]string) {
	const procs = 8
	const steps = 60
	chans := make([]*Chan[int], 4)
	for i := range chans {
		chans[i] = NewChan[int](k)
	}
	res := []*Resource{
		NewResource(k, "r0", 1),
		NewResource(k, "r1", 2),
	}
	for i := 0; i < procs; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				switch rng.Intn(4) {
				case 0:
					p.Hold(time.Duration(rng.Intn(50)) * time.Microsecond)
				case 1:
					chans[rng.Intn(len(chans))].Send(rng.Intn(100))
				case 2:
					// Timed receive so the workload always terminates even
					// when sends and receives don't balance.
					recvTimeout(p, chans[rng.Intn(len(chans))], time.Duration(1+rng.Intn(30))*time.Microsecond)
				case 3:
					use(p, res[rng.Intn(len(res))], 1, time.Duration(rng.Intn(20))*time.Microsecond)
				}
				*trace = append(*trace, fmt.Sprintf("%s@%v#%d", p.name, p.Now(), s))
			}
		})
	}
}

// trajectory runs randomWorkload to completion on a fresh kernel.
func trajectory(seed int64) (trace []string, end Time) {
	k := NewKernel(seed)
	randomWorkload(k, seed, &trace)
	end = k.Run(0)
	return trace, end
}

// TestSteppedRunMatchesSingleRun drives the same workload through many small
// Run(limit) windows and checks the trajectory is identical to one unlimited
// Run: pausing and resuming must not perturb event order.
func TestSteppedRunMatchesSingleRun(t *testing.T) {
	const seed = 3
	single, singleEnd := trajectory(seed)

	k := NewKernel(seed)
	var stepped []string
	randomWorkload(k, seed, &stepped)
	var limit Time
	var end Time
	for i := 0; len(k.live) > 0; i++ {
		if i > 10000 {
			t.Fatal("stepped run did not terminate")
		}
		limit += Time(37 * time.Microsecond)
		end = k.Run(limit)
	}
	// The last window drained the queue, so the clock rests at the final
	// event, exactly where the single run ended.
	if end != singleEnd {
		t.Fatalf("stepped run ended at %v, single run at %v", end, singleEnd)
	}
	if len(stepped) != len(single) {
		t.Fatalf("%d trace records (stepped) != %d (single)", len(stepped), len(single))
	}
	for i := range stepped {
		if stepped[i] != single[i] {
			t.Fatalf("trajectories diverge at step %d: %q (stepped) != %q (single)", i, stepped[i], single[i])
		}
	}
}

// TestRunLimitExactEventBoundary pins down the cutoff semantics: an event
// scheduled exactly at the limit fires, a later one stays queued, the clock
// rests at the limit, and a later Run continues the same trajectory.
func TestRunLimitExactEventBoundary(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Hold(10 * time.Microsecond)
			fired = append(fired, p.Now())
		}
	})

	if end := k.Run(Time(10 * time.Microsecond)); end != Time(10*time.Microsecond) {
		t.Fatalf("first window ended at %v, want 10µs", end)
	}
	if len(fired) != 1 || fired[0] != Time(10*time.Microsecond) {
		t.Fatalf("after first window fired = %v, want exactly the 10µs tick", fired)
	}

	// A limit between events: the 20µs tick fires, the 30µs tick stays
	// queued, and the clock advances to the limit itself.
	if end := k.Run(Time(25 * time.Microsecond)); end != Time(25*time.Microsecond) {
		t.Fatalf("second window ended at %v, want 25µs", end)
	}
	if len(fired) != 2 || fired[1] != Time(20*time.Microsecond) {
		t.Fatalf("after second window fired = %v, want ticks at 10µs and 20µs", fired)
	}

	// Unlimited resumption drains the rest without re-firing anything.
	if end := k.Run(0); end != Time(50*time.Microsecond) {
		t.Fatalf("final run ended at %v, want 50µs", end)
	}
	want := []Time{
		Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(30 * time.Microsecond),
		Time(40 * time.Microsecond), Time(50 * time.Microsecond),
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if len(k.live) != 0 {
		t.Fatalf("%d processes still alive after drain", len(k.live))
	}
}

// TestProcPoolReusesRunners checks the pool spawns a runner per concurrent
// task but recycles parked runners for sequential traffic.
func TestProcPoolReusesRunners(t *testing.T) {
	k := NewKernel(1)
	pp := NewProcPool(k, "pool")
	var order []int
	k.Spawn("driver", func(p *Proc) {
		// Sequential: each task finishes before the next is submitted, so one
		// runner carries all of them.
		for i := 0; i < 10; i++ {
			i := i
			pp.Go(func(q *Proc) {
				q.Hold(time.Microsecond)
				order = append(order, i)
			})
			p.Hold(5 * time.Microsecond)
		}
	})
	k.Run(0)
	if got := pp.n; got != 1 {
		t.Errorf("sequential tasks spawned %d runners, want 1", got)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("tasks ran out of order: %v", order)
		}
	}

	// A burst of overlapping tasks forces one runner each.
	k.Spawn("burst", func(p *Proc) {
		for i := 0; i < 4; i++ {
			pp.Go(func(q *Proc) { q.Hold(10 * time.Microsecond) })
		}
	})
	k.Run(0)
	if got := pp.n; got != 4 {
		t.Errorf("after burst of 4 overlapping tasks spawned = %d, want 4", got)
	}
	if got := len(pp.idle); got != 4 {
		t.Errorf("after drain idle = %d, want 4", got)
	}
}

// TestConcurrentKernelsIndependent runs identical workloads on kernels driven
// from different goroutines. Under -race this verifies kernels share no
// state; the end times and scheduling counters must also be identical since
// each kernel is self-contained.
func TestConcurrentKernelsIndependent(t *testing.T) {
	const goroutines = 4
	ends := make([]Time, goroutines)
	stats := make([]Stats, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := NewKernel(int64(i + 1)) // kernel seed differs; workload RNG does not
			var trace []string
			randomWorkload(k, 7, &trace)
			ends[i] = k.Run(0)
			stats[i] = k.Stats()
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if ends[i] != ends[0] {
			t.Errorf("kernel %d ended at %v, kernel 0 at %v", i, ends[i], ends[0])
		}
		if stats[i] != stats[0] {
			t.Errorf("kernel %d stats %+v, kernel 0 %+v", i, stats[i], stats[0])
		}
	}
	if stats[0].Events == 0 {
		t.Error("workload dispatched no events")
	}
}
