package simnet

import (
	"testing"
	"time"
)

// awaitFor waits for f for coroutine p, giving up d from now, the way
// Satin's Sync thief waits on a child: Future.Arm and Proc.Arm inside
// StepUntil, and Unwait when the timer wakes it first. ok is false when it
// gave up.
func awaitFor[T any](p *Proc, f *Future[T], d Duration) (v T, ok bool) {
	armed := false
	p.StepUntil(func(p *Proc) bool {
		if f.Done() {
			return false
		}
		if armed {
			f.Unwait(p)
			return false
		}
		armed = true
		f.Arm(p)
		p.Arm(d)
		return true
	})
	return f.Peek()
}

func TestFutureArmCompletesInTime(t *testing.T) {
	k := NewKernel(1)
	f := new(Future[int])
	var got int
	var ok bool
	var at Time
	k.Spawn("w", func(p *Proc) {
		got, ok = awaitFor(p, f, 10*time.Millisecond)
		at = p.Now()
	})
	k.Spawn("c", func(p *Proc) {
		p.Hold(time.Millisecond)
		f.Complete(9)
	})
	k.Run(0)
	if !ok || got != 9 || at != Time(time.Millisecond) {
		t.Fatalf("got %d ok=%v at %v", got, ok, at)
	}
}

func TestFutureArmExpires(t *testing.T) {
	k := NewKernel(1)
	f := new(Future[int])
	var ok bool
	var at Time
	k.Spawn("w", func(p *Proc) {
		_, ok = awaitFor(p, f, 3*time.Millisecond)
		at = p.Now()
	})
	k.Run(0)
	if ok || at != Time(3*time.Millisecond) {
		t.Fatalf("ok=%v at=%v", ok, at)
	}
	if len(f.waiters) != 0 {
		t.Fatal("stale waiter after timeout")
	}
}

func TestFutureArmAlreadyComplete(t *testing.T) {
	k := NewKernel(1)
	f := new(Future[int])
	f.Complete(4)
	ran := false
	k.Spawn("w", func(p *Proc) {
		v, ok := awaitFor(p, f, time.Millisecond)
		if !ok || v != 4 {
			t.Errorf("v=%d ok=%v", v, ok)
		}
		if p.Now() != 0 {
			t.Error("waiting on a complete future advanced time")
		}
		ran = true
	})
	k.Run(0)
	if !ran {
		t.Fatal("waiter did not run")
	}
	if st := k.Stats(); st.Events != 1 {
		t.Fatalf("%d events, want only the waiter's start", st.Events)
	}
}

func TestFutureArmThenComplete(t *testing.T) {
	// The waiter times out at 2 and 4 ms, dropping its entry each time, and
	// sees the completion at 5 ms. The only stale wake is its last timer,
	// due at 6 ms, which the completion supersedes: a waiter left behind by
	// a timeout would add one for each round it missed.
	k := NewKernel(1)
	f := new(Future[int])
	var rounds, got int
	k.Spawn("w", func(p *Proc) {
		for {
			v, ok := awaitFor(p, f, 2*time.Millisecond)
			rounds++
			if ok {
				got = v
				return
			}
		}
	})
	k.Spawn("c", func(p *Proc) {
		p.Hold(5 * time.Millisecond)
		if len(f.waiters) != 1 {
			t.Errorf("%d waiters before completion, want 1", len(f.waiters))
		}
		f.Complete(77)
	})
	k.Run(0)
	if got != 77 || rounds != 3 {
		t.Fatalf("got=%d rounds=%d", got, rounds)
	}
	if st := k.Stats(); st.Stale != 1 {
		t.Fatalf("%d stale wakes, want 1 (the superseded timer)", st.Stale)
	}
}
