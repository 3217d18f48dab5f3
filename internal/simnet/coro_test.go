package simnet

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestPull and TestChanPull hold both coroutine implementations to the same
// contract, so the channel fallback stays tested on toolchains that build
// the iter.Pull one.
func TestPull(t *testing.T)     { testPullContract(t, pull) }
func TestChanPull(t *testing.T) { testPullContract(t, chanPull) }

func testPullContract(t *testing.T, pull func(body) (func() (struct{}, bool), func())) {
	// Resumes and yields alternate until the body returns; after that next
	// reports false and stop does nothing.
	steps := 0
	count := func(n int) body {
		return func(yield func(struct{}) bool) {
			for i := 0; i < n; i++ {
				steps++
				if !yield(struct{}{}) {
					return
				}
			}
		}
	}
	next, stop := pull(count(3))
	for i := 1; i <= 3; i++ {
		if _, ok := next(); !ok || steps != i {
			t.Fatalf("resume %d: ok=%v after %d steps", i, ok, steps)
		}
	}
	for i := 0; i < 2; i++ {
		if _, ok := next(); ok {
			t.Fatal("next reported a yield after the body returned")
		}
	}
	stop()

	// A coroutine may be resumed from any goroutine, one at a time.
	steps = 0
	next, stop = pull(count(4))
	for i := 1; i <= 4; i++ {
		resumed := make(chan struct{})
		go func() { next(); close(resumed) }()
		<-resumed
		if steps != i {
			t.Fatalf("resume %d from goroutine: %d steps", i, steps)
		}
	}
	stop()

	// A body stopped before its first resume never runs.
	ran := false
	_, stop = pull(func(func(struct{}) bool) { ran = true })
	stop()
	if ran {
		t.Fatal("stop before the first resume ran the body")
	}

	// Stopping a suspended body makes its pending yield return false; its
	// deferred calls run, and a yield from them returns false at once.
	var yields []bool
	next, stop = pull(func(yield func(struct{}) bool) {
		defer func() { yields = append(yields, yield(struct{}{})) }()
		yields = append(yields, yield(struct{}{}))
	})
	next()
	stop()
	if len(yields) != 2 || yields[0] || yields[1] {
		t.Fatalf("yields after stop = %v, want [false false]", yields)
	}

	// A panic comes out of next with its original value and finishes the
	// coroutine.
	boom := errors.New("boom")
	next, _ = pull(func(yield func(struct{}) bool) {
		yield(struct{}{})
		panic(boom)
	})
	next()
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("next panicked with %v, want %v", r, boom)
			}
		}()
		next()
		t.Fatal("next returned although the body panicked")
	}()
	if _, ok := next(); ok {
		t.Fatal("next reported a yield after the body panicked")
	}

	// runtime.Goexit in the body exits the goroutine that resumed it.
	exited := make(chan bool)
	go func() {
		returned := false
		defer func() { exited <- !returned }()
		next, _ := pull(func(func(struct{}) bool) { runtime.Goexit() })
		next()
		returned = true
	}()
	if !<-exited {
		t.Fatal("next returned although the body called runtime.Goexit")
	}
}

// TestProcessPanicReachesRun: a panic in a process body comes out of
// Kernel.Run on the caller's goroutine, with its original value — also when
// the process was resumed by a switch rather than a self-wake.
func TestProcessPanicReachesRun(t *testing.T) {
	type boom struct{ at Time }
	k := NewKernel(1)
	ch := NewChan[int](k)
	k.Spawn("sender", func(p *Proc) {
		p.Hold(time.Microsecond)
		ch.Send(1)
	})
	k.Spawn("receiver", func(p *Proc) {
		recv(p, ch)
		panic(boom{p.Now()})
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run(0)
		return nil
	}()
	if got != (boom{Time(time.Microsecond)}) {
		t.Fatalf("Run panicked with %#v, want boom{1µs}", got)
	}
}
