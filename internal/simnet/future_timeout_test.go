package simnet

import (
	"testing"
	"time"
)

func TestAwaitTimeoutCompletesInTime(t *testing.T) {
	k := NewKernel(1)
	f := new(Future[int])
	var got int
	var ok bool
	k.Spawn("w", func(p *Proc) {
		got, ok = f.AwaitTimeout(p, 10*time.Millisecond)
	})
	k.Spawn("c", func(p *Proc) {
		p.Hold(time.Millisecond)
		f.Complete(9)
	})
	k.Run(0)
	if !ok || got != 9 {
		t.Fatalf("got %d ok=%v", got, ok)
	}
}

func TestAwaitTimeoutExpires(t *testing.T) {
	k := NewKernel(1)
	f := new(Future[int])
	var ok bool
	var at Time
	k.Spawn("w", func(p *Proc) {
		_, ok = f.AwaitTimeout(p, 3*time.Millisecond)
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

func TestAwaitTimeoutAlreadyComplete(t *testing.T) {
	k := NewKernel(1)
	f := new(Future[int])
	f.Complete(4)
	ran := false
	k.Spawn("w", func(p *Proc) {
		v, ok := f.AwaitTimeout(p, time.Millisecond)
		if !ok || v != 4 {
			t.Errorf("v=%d ok=%v", v, ok)
		}
		if p.Now() != 0 {
			t.Error("already-complete AwaitTimeout advanced time")
		}
		ran = true
	})
	k.Run(0)
	if !ran {
		t.Fatal("waiter did not run")
	}
}

func TestAwaitTimeoutThenComplete(t *testing.T) {
	// After a timeout the waiter can re-await and still see the completion.
	k := NewKernel(1)
	f := new(Future[int])
	var rounds int
	var got int
	k.Spawn("w", func(p *Proc) {
		for {
			v, ok := f.AwaitTimeout(p, 2*time.Millisecond)
			rounds++
			if ok {
				got = v
				return
			}
		}
	})
	k.Spawn("c", func(p *Proc) {
		p.Hold(5 * time.Millisecond)
		f.Complete(77)
	})
	k.Run(0)
	if got != 77 || rounds < 2 {
		t.Fatalf("got=%d rounds=%d", got, rounds)
	}
}
