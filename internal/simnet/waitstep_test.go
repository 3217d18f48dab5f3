package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// waiter waits for a shared level to reach a target it draws each round,
// then holds for a random time: run is the waiter as a coroutine (through
// WaitList.Park) and step as a step process (through WaitList.Arm and
// Arm). Both draw the same values at the same wakes, so both must produce
// the same events.
type waiter struct {
	name   string
	list   *WaitList
	level  *int
	rng    *rand.Rand
	rounds int
	log    *strings.Builder

	// step-process state between wakes
	round  int
	phase  int // 0 round start, 1 waiting for the level, 2 holding
	target int
}

func (w *waiter) draw() int      { return *w.level + 1 + w.rng.Intn(3) }
func (w *waiter) hold() Duration { return time.Duration(1+w.rng.Intn(9)) * time.Microsecond }

func (w *waiter) logReached(now Time) { fmt.Fprintf(w.log, "%s %d %d\n", w.name, w.target, now) }

func (w *waiter) run(p *Proc) {
	for ; w.round < w.rounds; w.round++ {
		w.target = w.draw()
		for *w.level < w.target {
			w.list.Park(p)
		}
		w.logReached(p.Now())
		p.Hold(w.hold())
	}
}

func (w *waiter) step(p *Proc) bool {
	for {
		switch w.phase {
		case 0:
			if w.round == w.rounds {
				return false
			}
			w.target, w.phase = w.draw(), 1
		case 1:
			if *w.level < w.target {
				w.list.Arm(p)
				return true
			}
			w.logReached(p.Now())
			w.phase = 2
			p.Arm(w.hold())
			return true
		case 2:
			w.round, w.phase = w.round+1, 0
		}
	}
}

// waitLevels runs six waiters on one WaitList against callbacks that raise
// the level or only wake the list (so woken waiters re-arm). With mixed
// set, the first waiter is a step process and each other one a coroutine
// or a step process at random; otherwise all are coroutines. It returns the
// log of reached targets, the wake trace and the kernel's counters.
func waitLevels(seed int64, mixed bool) (log, wakes string, st Stats) {
	k := NewKernel(seed)
	w := &wakeTrace{}
	k.SetTracer(w)
	rng := rand.New(rand.NewSource(seed))
	var list WaitList
	level := 0
	var b strings.Builder
	for i := 0; i < 6; i++ {
		wt := &waiter{name: fmt.Sprintf("w%d", i), list: &list, level: &level, rng: rand.New(rand.NewSource(rng.Int63())), rounds: 3 + rng.Intn(6), log: &b}
		if stepped := rng.Intn(2) == 0 || i == 0; stepped && mixed {
			k.SpawnStepOn(i%3, wt.name, wt.step)
		} else {
			k.SpawnOn(i%3, wt.name, wt.run)
		}
	}
	for i := 0; i < 60; i++ {
		at, raise := Time(rng.Intn(300))*Time(time.Microsecond), rng.Intn(2)
		k.CallAt(at, func() {
			level += raise
			list.WakeAll(k)
		})
	}
	k.Run(0)
	k.Close()
	return b.String(), w.b.String(), k.Stats()
}

// sameRun fails the test unless a run with step processes matches the
// all-coroutine run: the same log, the same wake trace and the same
// trajectory counters, with the step processes' wakes run as steps.
func sameRun(t *testing.T, seed int64, coLog, coWakes string, coSt Stats, mxLog, mxWakes string, mxSt Stats) {
	t.Helper()
	if coLog != mxLog {
		t.Fatalf("seed %d: logs differ:\ncoroutines\n%s\nmixed\n%s", seed, coLog, mxLog)
	}
	if coWakes != mxWakes {
		t.Fatalf("seed %d: wake traces differ", seed)
	}
	if coSt.Events != mxSt.Events || coSt.Stale != mxSt.Stale || coSt.Callbacks != mxSt.Callbacks || coSt.Spawns != mxSt.Spawns {
		t.Fatalf("seed %d: stats differ:\ncoroutines %+v\nmixed      %+v", seed, coSt, mxSt)
	}
	if coSt.Steps != 0 || mxSt.Steps == 0 || mxSt.Events != mxSt.Switches+mxSt.SelfWakes+mxSt.Steps+mxSt.Callbacks {
		t.Fatalf("seed %d: coroutines %+v, mixed %+v: the step forms must run as steps", seed, coSt, mxSt)
	}
}

// TestWaitListArmMatchesPark: waiters on one WaitList reach their targets
// at the same times, with the same wakes and trajectory counters, whether
// each is a coroutine parking in a Park loop or a step process re-arming
// with Arm.
func TestWaitListArmMatchesPark(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		coLog, coWakes, coSt := waitLevels(seed, false)
		mxLog, mxWakes, mxSt := waitLevels(seed, true)
		sameRun(t, seed, coLog, coWakes, coSt, mxLog, mxWakes, mxSt)
	}
}

// TestWaitListArmFromCoroutine: Arm is for step processes; a coroutine
// calling it panics naming itself.
func TestWaitListArmFromCoroutine(t *testing.T) {
	k := NewKernel(1)
	var list WaitList
	k.Spawn("armer", func(p *Proc) { list.Arm(p) })
	mustPanicNaming(t, "armer", func() { k.Run(0) })
	if !list.Empty() {
		t.Fatal("a refused Arm left a waiter on the list")
	}
}

// poolTasks submits 40 tasks to one ProcPool from callbacks at random
// times; each task holds one to three random times and logs its end. With
// mixed set, each task is a coroutine task (Go) or a step task (GoStep) at
// random; otherwise all are coroutine tasks. It returns the log, the wake
// trace, the kernel's counters and the number of runners spawned.
func poolTasks(seed int64, mixed bool) (log, wakes string, st Stats, spawned int) {
	k := NewKernel(seed)
	w := &wakeTrace{}
	k.SetTracer(w)
	rng := rand.New(rand.NewSource(seed))
	pp := NewProcPool(k, "pool")
	var b strings.Builder
	for i := 0; i < 40; i++ {
		name, holds := fmt.Sprintf("t%d", i), 1+rng.Intn(3)
		trng := rand.New(rand.NewSource(rng.Int63()))
		stepped := rng.Intn(2) == 0 && mixed
		hold := func() Duration { return time.Duration(1+trng.Intn(20)) * time.Microsecond }
		k.CallAt(Time(rng.Intn(100))*Time(time.Microsecond), func() {
			if !stepped {
				pp.Go(func(p *Proc) {
					for h := 0; h < holds; h++ {
						p.Hold(hold())
					}
					fmt.Fprintf(&b, "%s %d\n", name, p.Now())
				})
				return
			}
			h := 0
			pp.GoStep(func(p *Proc) bool {
				if h == holds {
					fmt.Fprintf(&b, "%s %d\n", name, p.Now())
					return false
				}
				h++
				p.Arm(hold())
				return true
			})
		})
	}
	k.Run(0)
	k.Close()
	return b.String(), w.b.String(), k.Stats(), pp.Spawned()
}

// TestProcPoolGoStepMatchesGo: a pool's tasks end at the same times, with
// the same wakes, trajectory counters and runners, whether each runs as a
// coroutine task or as a step task.
func TestProcPoolGoStepMatchesGo(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		coLog, coWakes, coSt, coN := poolTasks(seed, false)
		mxLog, mxWakes, mxSt, mxN := poolTasks(seed, true)
		if coN != mxN {
			t.Fatalf("seed %d: %d runners with coroutine tasks, %d mixed", seed, coN, mxN)
		}
		sameRun(t, seed, coLog, coWakes, coSt, mxLog, mxWakes, mxSt)
	}
}
