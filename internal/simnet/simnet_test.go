package simnet

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestHoldAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.Spawn("a", func(p *Proc) {
		p.Hold(3 * time.Millisecond)
		at = p.Now()
	})
	end := k.Run(0)
	if at != Time(3*time.Millisecond) {
		t.Fatalf("proc observed %v, want 3ms", at)
	}
	if end != at {
		t.Fatalf("Run returned %v, want %v", end, at)
	}
}

func TestHoldNegativeClampsToZero(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("a", func(p *Proc) {
		p.Hold(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative hold advanced clock to %v", p.Now())
		}
	})
	k.Run(0)
}

func TestProcessesInterleaveInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("slow", func(p *Proc) {
		p.Hold(10 * time.Microsecond)
		order = append(order, "slow")
	})
	k.Spawn("fast", func(p *Proc) {
		p.Hold(1 * time.Microsecond)
		order = append(order, "fast")
	})
	k.Run(0)
	if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
		t.Fatalf("order = %v, want [fast slow]", order)
	}
}

func TestEqualTimestampsFireInCreationOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Hold(time.Millisecond)
			order = append(order, i)
		})
	}
	k.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestRunLimitPausesAndResumes(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Spawn("a", func(p *Proc) {
		p.Hold(10 * time.Millisecond)
		fired = true
	})
	now := k.Run(Time(time.Millisecond))
	if fired || now != Time(time.Millisecond) {
		t.Fatalf("fired=%v now=%v after limited run", fired, now)
	}
	k.Run(0)
	if !fired {
		t.Fatal("event not fired after resumed run")
	}
}

func TestSpawnFromInsideProcess(t *testing.T) {
	k := NewKernel(1)
	var childAt Time
	k.Spawn("parent", func(p *Proc) {
		p.Hold(time.Millisecond)
		k.Spawn("child", func(c *Proc) {
			c.Hold(time.Millisecond)
			childAt = c.Now()
		})
		p.Hold(5 * time.Millisecond)
	})
	k.Run(0)
	if childAt != Time(2*time.Millisecond) {
		t.Fatalf("child finished at %v, want 2ms", childAt)
	}
}

// TestSpawnOnRejectsStreamOutOfRange: a process's stream must fit an
// event's order key. A stream outside [0, 2^20) used to be truncated to
// int32, so stream 1<<32 shared stream 0's stamp counter and broke
// determinism silently, and a negative stream crashed Run at its first
// stamp. Both spawn calls now reject it up front, naming the process; the
// largest valid stream runs. Stream 1<<32 exists only where int has 64 bits.
func TestSpawnOnRejectsStreamOutOfRange(t *testing.T) {
	streams := []int{-1, maxStreams}
	if strconv.IntSize == 64 {
		streams = append(streams, 1<<(strconv.IntSize/2))
	}
	for _, stream := range streams {
		k := NewKernel(1)
		mustPanicNaming(t, "far-node", func() { k.SpawnOn(stream, "far-node", func(p *Proc) {}) })
		mustPanicNaming(t, "far-step", func() {
			k.SpawnStepOn(stream, "far-step", func(p *Proc) bool { return false })
		})
	}
	k := NewKernel(1)
	ran := false
	k.SpawnOn(maxStreams-1, "last-node", func(p *Proc) {
		p.Hold(time.Microsecond)
		ran = true
	})
	k.Run(0)
	if !ran {
		t.Fatal("process on the largest stream did not run")
	}
}

func TestChanRendezvous(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k)
	var got int
	var at Time
	k.Spawn("recv", func(p *Proc) {
		got = recv(p, c)
		at = p.Now()
	})
	k.Spawn("send", func(p *Proc) {
		p.Hold(4 * time.Millisecond)
		c.Send(41)
	})
	k.Run(0)
	if got != 41 || at != Time(4*time.Millisecond) {
		t.Fatalf("got %d at %v, want 41 at 4ms", got, at)
	}
}

func TestChanBuffersWhenNoReceiver(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[string](k)
	k.Spawn("send", func(p *Proc) {
		c.Send("x")
		c.Send("y")
	})
	var got []string
	k.Spawn("recv", func(p *Proc) {
		p.Hold(time.Millisecond)
		got = append(got, recv(p, c), recv(p, c))
	})
	k.Run(0)
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("got %v, want [x y] (FIFO)", got)
	}
}

func TestChanMultipleWaitersServedFIFO(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.SpawnAt(Time(i), "recv", func(p *Proc) {
			v := recv(p, c)
			order = append(order, i*100+v)
		})
	}
	k.Spawn("send", func(p *Proc) {
		p.Hold(time.Millisecond)
		for v := 1; v <= 3; v++ {
			c.Send(v)
		}
	})
	k.Run(0)
	want := []int{1, 102, 203}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (first waiter gets first value)", order, want)
		}
	}
}

func TestChanRecvTimeoutExpires(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k)
	var ok bool
	var at Time
	k.Spawn("recv", func(p *Proc) {
		_, ok = recvTimeout(p, c, 2*time.Millisecond)
		at = p.Now()
	})
	k.Run(0)
	if ok || at != Time(2*time.Millisecond) {
		t.Fatalf("ok=%v at=%v, want timeout at 2ms", ok, at)
	}
	if len(c.waiters) != 0 {
		t.Fatalf("stale waiter left on channel after timeout")
	}
}

func TestChanRecvTimeoutBeatenBySend(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k)
	var got int
	var ok bool
	k.Spawn("recv", func(p *Proc) {
		got, ok = recvTimeout(p, c, 5*time.Millisecond)
	})
	k.Spawn("send", func(p *Proc) {
		p.Hold(time.Millisecond)
		c.Send(7)
	})
	k.Run(0)
	if !ok || got != 7 {
		t.Fatalf("got %d ok=%v, want 7 before timeout", got, ok)
	}
}

func TestChanValueSurvivesTimedOutWaiter(t *testing.T) {
	// A waiter times out; a later send must still reach the next receiver.
	k := NewKernel(1)
	c := NewChan[int](k)
	k.Spawn("quitter", func(p *Proc) {
		recvTimeout(p, c, time.Millisecond)
	})
	var got int
	k.Spawn("patient", func(p *Proc) {
		p.Hold(2 * time.Millisecond)
		got = recv(p, c)
	})
	k.Spawn("send", func(p *Proc) {
		p.Hold(3 * time.Millisecond)
		c.Send(9)
	})
	k.Run(0)
	if got != 9 {
		t.Fatalf("got %d, want 9 delivered to surviving waiter", got)
	}
}

func TestTryRecv(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k)
	if _, ok := c.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan reported ok")
	}
	c.Send(5)
	v, ok := c.TryRecv()
	if !ok || v != 5 {
		t.Fatalf("TryRecv = %d,%v want 5,true", v, ok)
	}
}

func TestResourceSerializes(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "link", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		k.Spawn("u", func(p *Proc) {
			use(p, r, 1, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	k.Run(0)
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	if len(finish) != 3 {
		t.Fatalf("finish = %v", finish)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v (serialized)", finish, want)
		}
	}
}

func TestResourceParallelWithinCapacity(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "cores", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		k.Spawn("u", func(p *Proc) {
			use(p, r, 1, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	k.Run(0)
	if k.Now() != Time(20*time.Millisecond) {
		t.Fatalf("4 jobs on 2 units ended at %v, want 20ms", k.Now())
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	// A big request at the head must not be starved by small ones behind it.
	k := NewKernel(1)
	r := NewResource(k, "r", 4)
	var order []string
	k.Spawn("holder", func(p *Proc) {
		acquire(p, r, 3)
		p.Hold(10 * time.Millisecond)
		r.Release(3)
	})
	k.SpawnAt(1, "big", func(p *Proc) {
		acquire(p, r, 4)
		order = append(order, "big")
		r.Release(4)
	})
	k.SpawnAt(2, "small", func(p *Proc) {
		acquire(p, r, 1)
		order = append(order, "small")
		r.Release(1)
	})
	k.Run(0)
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("order = %v, want big first (FIFO)", order)
	}
}

func TestOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	k := NewKernel(1)
	r := NewResource(k, "r", 1)
	r.Release(1)
}

func TestFutureAwaitBeforeAndAfterComplete(t *testing.T) {
	k := NewKernel(1)
	f := new(Future[int])
	var early, late int
	var earlyAt Time
	k.Spawn("early", func(p *Proc) { early, earlyAt = f.Await(p), p.Now() })
	k.Spawn("completer", func(p *Proc) {
		p.Hold(time.Millisecond)
		f.Complete(13)
	})
	k.Spawn("late", func(p *Proc) {
		p.Hold(2 * time.Millisecond)
		late = f.Await(p)
	})
	k.Run(0)
	if early != 13 || late != 13 {
		t.Fatalf("early=%d late=%d, want both 13", early, late)
	}
	if earlyAt != Time(time.Millisecond) {
		t.Fatalf("early waiter woke at %v, want 1ms (the completion)", earlyAt)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	f := new(Future[int])
	f.Complete(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double complete did not panic")
		}
	}()
	f.Complete(2)
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []int {
		k := NewKernel(42)
		rng := rand.New(rand.NewSource(k.Seed()))
		c := NewChan[int](k)
		var out []int
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn("p", func(p *Proc) {
				p.Hold(Duration(rng.Intn(1000)) * time.Microsecond)
				c.Send(i)
			})
		}
		k.Spawn("collector", func(p *Proc) {
			for j := 0; j < 8; j++ {
				out = append(out, recv(p, c))
			}
		})
		k.Run(0)
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic traces: %v vs %v", a, b)
		}
	}
}

func TestBlockedDetection(t *testing.T) {
	k := NewKernel(1)
	c := NewChan[int](k)
	k.Spawn("stuck", func(p *Proc) { recv(p, c) })
	k.Run(0)
	if blocked(k) != 1 {
		t.Fatalf("blocked = %d, want 1", blocked(k))
	}
	if len(k.live) != 1 {
		t.Fatalf("alive = %d, want 1", len(k.live))
	}
}

// Property: for any set of hold durations, Run finishes at the max duration
// and every process observes its own duration exactly.
func TestHoldDurationsProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		k := NewKernel(7)
		var max Time
		ok := true
		for _, d := range durs {
			d := Duration(d) * time.Microsecond
			if Time(d) > max {
				max = Time(d)
			}
			k.Spawn("p", func(p *Proc) {
				p.Hold(d)
				if p.Now() != Time(d) {
					ok = false
				}
			})
		}
		end := k.Run(0)
		return ok && end == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a single-unit resource used by n processes for d each is held
// by one process at a time and never idles while a request waits: every
// grant comes at the later of its request and the previous release, so
// the run ends at the last release, no earlier than n*d.
func TestResourceSerializationProperty(t *testing.T) {
	f := func(starts []uint8) bool {
		if len(starts) == 0 {
			return true
		}
		if len(starts) > 20 {
			starts = starts[:20]
		}
		k := NewKernel(3)
		r := NewResource(k, "r", 1)
		const d = time.Millisecond
		type hold struct{ start, grant Time }
		var holds []hold
		for _, s := range starts {
			st := Time(s) * Time(time.Microsecond)
			k.SpawnAt(st, "u", func(p *Proc) {
				acquire(p, r, 1)
				holds = append(holds, hold{st, p.Now()})
				p.Hold(d)
				r.Release(1)
			})
		}
		end := k.Run(0)
		var free Time // the previous release
		for _, h := range holds {
			if h.grant != max(h.start, free) {
				return false
			}
			free = h.grant.Add(d)
		}
		return len(holds) == len(starts) && end == free && end >= Time(Duration(len(starts))*d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeFormatting(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.String() != "1.5s" {
		t.Fatalf("String = %q", tm.String())
	}
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
}
