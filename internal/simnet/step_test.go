package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// digest is a short hash of a run's outputs, for pinning them as literals.
func digest(parts ...string) string {
	h := sha256.New()
	for _, s := range parts {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// hostFree drops the counters that say how a wake ran (Switches,
// SelfWakes, Steps), which differ between the forms of a wait.
func hostFree(st Stats) Stats {
	st.Switches, st.SelfWakes, st.Steps = 0, 0, 0
	return st
}

// runDigest pins a reactor workload's wake trace, end time and trajectory
// counters.
func runDigest(trace string, end Time, st Stats) string {
	return digest(trace, fmt.Sprintf("%d %+v", end, hostFree(st)))
}

// reactor serves requests from in: it receives each with a timeout (none
// when timeout < 0), holds for service(v) and replies with v on
// out[v%len(out)]. It ends after serving n requests (never when n < 0), or
// on a timeout once stop reports true. run is the reactor as a coroutine
// body, receiving inside StepUntil and holding in place, and step as a
// step-process body; both must produce the same events.
type reactor struct {
	in      *Chan[int]
	out     []*Chan[int]
	timeout Duration
	service func(v int) Duration
	n       int
	stop    func() bool

	served int
	rx     receiver[int] // run's receives
	// step-process state between wakes
	receiving, holding bool
	deadline           Time
	v                  int
}

func (r *reactor) run(p *Proc) {
	for r.served != r.n {
		v, ok := r.rx.recv(p, r.in, r.timeout)
		if !ok {
			if r.stop() {
				return
			}
			continue
		}
		p.Hold(r.service(v))
		r.out[v%len(r.out)].Send(v)
		r.served++
	}
}

func (r *reactor) step(p *Proc) bool {
	if r.holding {
		r.holding = false
		r.out[r.v%len(r.out)].Send(r.v)
		r.served++
	} else if r.receiving {
		r.in.Unwait(p)
	}
	for r.served != r.n {
		if !r.receiving {
			r.receiving, r.deadline = true, -1
			if r.timeout >= 0 {
				r.deadline = p.Now().Add(r.timeout)
			}
		}
		if v, ok := r.in.TryRecv(); ok {
			r.receiving, r.holding, r.v = false, true, v
			p.Arm(r.service(v))
			return true
		}
		if r.deadline < 0 || p.Now() < r.deadline {
			r.in.Await(p, r.deadline)
			return true
		}
		r.receiving = false
		if r.stop() {
			return false
		}
	}
	return false
}

// wakeTrace records every process slice and queue-depth sample.
type wakeTrace struct{ b strings.Builder }

func (w *wakeTrace) ProcSlice(name string, id int, start, end Time) {
	fmt.Fprintf(&w.b, "%s#%d %d-%d\n", name, id, start, end)
}

func (w *wakeTrace) QueueDepth(t Time, depth int) { fmt.Fprintf(&w.b, "q %d %d\n", t, depth) }

// reactorForm is how reactorWorkload runs its reactors.
type reactorForm int

const (
	coroutineReactors reactorForm = iota // coroutines, blocking
	stepReactors                         // step processes
	segmentedReactors                    // coroutines serving segments of 1 to 8 requests, blocking
	mixedReactors                        // the same segments, each blocking or inside StepUntil at random
)

// reactorWorkload runs two reactors on streams 1 and 2 against three
// coroutine clients on stream 0 that send requests directly or through
// callbacks and sometimes wait for the reply with a timeout. Only the form
// of the reactors differs between runs; the segmented forms draw the same
// segment lengths and choices.
func reactorWorkload(seed int64, form reactorForm) (trace string, end Time, st Stats) {
	k := NewKernel(seed)
	w := &wakeTrace{}
	k.SetTracer(w)
	rng := rand.New(rand.NewSource(seed))
	const clients = 3
	out := make([]*Chan[int], clients)
	for i := range out {
		out[i] = NewChan[int](k)
	}
	left := clients
	stop := func() bool { return left == 0 }
	var rs []*reactor
	for i := 0; i < 2; i++ {
		r := &reactor{
			in: NewChan[int](k), out: out, n: -1, stop: stop,
			timeout: time.Duration(5+rng.Intn(40)) * time.Microsecond,
			service: func(v int) Duration { return time.Duration(v*7919%13) * time.Microsecond },
		}
		rs = append(rs, r)
		name := fmt.Sprintf("reactor%d", i)
		switch srng := rand.New(rand.NewSource(rng.Int63())); form {
		case coroutineReactors:
			k.SpawnOn(i+1, name, r.run)
		case stepReactors:
			k.SpawnStepOn(i+1, name, r.step)
		default:
			k.SpawnOn(i+1, name, func(p *Proc) {
				for {
					r.n = r.served + 1 + srng.Intn(8)
					if srng.Intn(2) == 0 && form == mixedReactors {
						p.StepUntil(r.step)
					} else {
						r.run(p)
					}
					if r.served != r.n {
						return // stopped
					}
					p.Hold(time.Duration(srng.Intn(3)) * time.Microsecond)
				}
			})
		}
	}
	for c := 0; c < clients; c++ {
		c, crng := c, rand.New(rand.NewSource(rng.Int63()))
		k.Spawn(fmt.Sprintf("client%d", c), func(p *Proc) {
			defer func() { left-- }()
			for i := 0; i < 60; i++ {
				p.Hold(time.Duration(crng.Intn(30)) * time.Microsecond)
				v, in := c+clients*i, rs[crng.Intn(len(rs))].in
				if crng.Intn(4) == 0 {
					k.CallAfter(time.Duration(crng.Intn(5))*time.Microsecond, func() { in.Send(v) })
				} else {
					in.Send(v)
				}
				if crng.Intn(2) == 0 {
					recvTimeout(p, out[c], time.Duration(crng.Intn(20))*time.Microsecond)
				}
			}
		})
	}
	end = k.Run(0)
	return w.b.String(), end, k.Stats()
}

// blockingReactorRuns pins reactorWorkload with coroutine reactors, seeds
// 1 to 20 (runDigest), as recorded when its receives still blocked in
// Chan.RecvTimeout: the receive through Await inside StepUntil must make
// the same events.
var blockingReactorRuns = [...]string{
	"96370c7b6e40e82e", "9d3de8a10bce709d", "26d6116ed382f02c", "81142555d18b9458", "7d7094df001bc6f8",
	"df75a699c3b14dde", "d228409fa5619f67", "32e220205b5331de", "b7e3de07daad815d", "277fed8b6830ead4",
	"f9311e1f06088c79", "667f1c0a908eb335", "49eccfb739729940", "2bdcb868142ed984", "84217c42b284c235",
	"97b0d9539416040d", "fe32aefb0a17cb40", "fba6f931d0f4db69", "0f5503bf68eb895b", "d88032f7f1bb1f2a",
}

// TestStepProcessMatchesCoroutine runs the same randomized request/reply
// workload with its reactors as coroutine processes and as step processes.
// The coroutine run must match the run recorded with blocking receives,
// and the step run must match it: the same wake trace, end time and every
// trajectory counter. Only the host counters that say how a wake ran
// (Switches, SelfWakes, Steps) may differ, and in both forms they account
// for every event.
func TestStepProcessMatchesCoroutine(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		coTrace, coEnd, coSt := reactorWorkload(seed, coroutineReactors)
		stTrace, stEnd, stSt := reactorWorkload(seed, stepReactors)
		if got, want := runDigest(coTrace, coEnd, coSt), blockingReactorRuns[seed-1]; got != want {
			t.Fatalf("seed %d: coroutine run %s, want the blocking run's %s", seed, got, want)
		}
		for _, st := range []Stats{coSt, stSt} {
			if st.Events != st.Switches+st.SelfWakes+st.Steps+st.Callbacks {
				t.Fatalf("seed %d: Events != Switches+SelfWakes+Steps+Callbacks: %+v", seed, st)
			}
		}
		if stSt.Steps <= coSt.Steps || stSt.Switches >= coSt.Switches {
			t.Fatalf("seed %d: coroutine %+v, step %+v: the step form must replace switches by steps", seed, coSt, stSt)
		}
		if coEnd != stEnd {
			t.Fatalf("seed %d: end %v as coroutines, %v as step processes", seed, coEnd, stEnd)
		}
		if hostFree(coSt) != hostFree(stSt) {
			t.Fatalf("seed %d: stats differ:\ncoroutine %+v\nstep      %+v", seed, coSt, stSt)
		}
		if coTrace != stTrace {
			co, st := strings.Split(coTrace, "\n"), strings.Split(stTrace, "\n")
			for i := range co {
				if i >= len(st) || co[i] != st[i] {
					t.Fatalf("seed %d: wake traces diverge at line %d: coroutine %q, step %q", seed, i, co[i], st[min(i, len(st)-1)])
				}
			}
			t.Fatalf("seed %d: step trace is longer than the coroutine trace", seed)
		}
	}
}

// mustPanicNaming runs f and requires a panic whose message names name.
func mustPanicNaming(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, name) {
			t.Fatalf("panic %q does not name the process %q", msg, name)
		}
	}()
	f()
}

// TestStepProcessMisuse: a step that blocks, or that returns without
// arming its next wake, is a bug in the step and panics naming it.
func TestStepProcessMisuse(t *testing.T) {
	t.Run("blocks", func(t *testing.T) {
		k := NewKernel(1)
		k.SpawnStepOn(0, "blocker", func(p *Proc) bool {
			p.Hold(time.Microsecond)
			return true
		})
		mustPanicNaming(t, "blocker", func() { k.Run(0) })
	})
	t.Run("unarmed", func(t *testing.T) {
		k := NewKernel(1)
		k.SpawnStepOn(0, "forgetful", func(p *Proc) bool { return true })
		mustPanicNaming(t, "forgetful", func() { k.Run(0) })
	})
	t.Run("arm-coroutine", func(t *testing.T) {
		k := NewKernel(1)
		k.Spawn("coroutine", func(p *Proc) { p.Arm(time.Microsecond) })
		mustPanicNaming(t, "coroutine", func() { k.Run(0) })
	})
}

// TestCloseReleasesStepProcess: a step process still awaiting a channel
// when the queue drains is blocked like a parked coroutine, and Close
// releases it.
func TestCloseReleasesStepProcess(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k)
	steps := 0
	p := k.SpawnStepOn(0, "waiter", func(p *Proc) bool {
		steps++
		ch.Await(p, -1) // never sent to
		return true
	})
	k.Run(0)
	if steps != 1 || len(k.live) != 1 || blocked(k) != 1 {
		t.Fatalf("before Close: steps=%d alive=%d blocked=%d, want 1, 1 and 1", steps, len(k.live), blocked(k))
	}
	k.Close()
	if len(k.live) != 0 || !p.done {
		t.Fatalf("after Close: alive=%d done=%v, want 0 and true", len(k.live), p.done)
	}
	ch.Send(1) // a wake for a released process is stale
	if steps != 1 {
		t.Fatalf("released step process ran again")
	}
}

// blockingSegmentRuns pins reactorWorkload with segmented reactors, seeds
// 1 to 20 (runDigest), as recorded when every segment's receives blocked
// in Chan.RecvTimeout.
var blockingSegmentRuns = [...]string{
	"d43a95215460902a", "18ab39cc0b236a72", "f0c96c63140fbb1c", "606604ecd02f72b8", "27596da70a73fc2e",
	"0930b951cee0f265", "4c7370798e03afe4", "768299a9998de7ca", "6fee6573d0edea72", "995a52ff433695f1",
	"984e08aebbd6a93d", "5a09fb30e217a2b1", "7dd9fdb82220723c", "fb1b297850ecf8b1", "56a67fa632f5fae9",
	"8d087f0d9c9e310d", "9c8fbb36d3afa764", "6cf18d10f2d7ad49", "07a8bf0d46a0359e", "e4aa36a03c71753e",
}

// TestStepUntilMatchesBlocking runs coroutine reactors in segments, each
// segment a coroutine loop or a step machine inside StepUntil. The
// coroutine-loop run must match the run recorded with blocking receives,
// and the mixed run must match it: the same wake trace, end time and every
// trajectory counter. Only the counters that say how a wake ran may
// differ, and both runs account for every event.
func TestStepUntilMatchesBlocking(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		blTrace, blEnd, blSt := reactorWorkload(seed, segmentedReactors)
		suTrace, suEnd, suSt := reactorWorkload(seed, mixedReactors)
		if got, want := runDigest(blTrace, blEnd, blSt), blockingSegmentRuns[seed-1]; got != want {
			t.Fatalf("seed %d: segmented run %s, want the blocking run's %s", seed, got, want)
		}
		for _, st := range []Stats{blSt, suSt} {
			if st.Events != st.Switches+st.SelfWakes+st.Steps+st.Callbacks {
				t.Fatalf("seed %d: Events != Switches+SelfWakes+Steps+Callbacks: %+v", seed, st)
			}
		}
		if suSt.Steps <= blSt.Steps || suSt.Switches+suSt.SelfWakes >= blSt.Switches+blSt.SelfWakes {
			t.Fatalf("seed %d: coroutine loops %+v, StepUntil %+v: StepUntil must replace resumes by steps", seed, blSt, suSt)
		}
		if blEnd != suEnd {
			t.Fatalf("seed %d: end %v in coroutine loops, %v with StepUntil", seed, blEnd, suEnd)
		}
		if hostFree(blSt) != hostFree(suSt) {
			t.Fatalf("seed %d: stats differ:\ncoroutine loops %+v\nStepUntil       %+v", seed, blSt, suSt)
		}
		if blTrace != suTrace {
			bl, su := strings.Split(blTrace, "\n"), strings.Split(suTrace, "\n")
			for i := range bl {
				if i >= len(su) || bl[i] != su[i] {
					t.Fatalf("seed %d: wake traces diverge at line %d: coroutine loops %q, StepUntil %q", seed, i, bl[i], su[min(i, len(su)-1)])
				}
			}
			t.Fatalf("seed %d: StepUntil trace is longer than the coroutine-loop trace", seed)
		}
	}
}

// TestStepUntilHandsBack: StepUntil returns at the wake whose step returns
// false — at once when the first call does — and the wake that hands back
// resumes the body, counted as a self-wake here, while the wakes before it
// count as steps.
func TestStepUntilHandsBack(t *testing.T) {
	k := NewKernel(1)
	var at []Time
	k.Spawn("stepper", func(p *Proc) {
		p.StepUntil(func(*Proc) bool { return false })
		at = append(at, p.Now())
		left := 3
		p.StepUntil(func(p *Proc) bool {
			if left == 0 {
				return false
			}
			left--
			p.Arm(time.Microsecond)
			return true
		})
		at = append(at, p.Now())
	})
	k.Run(0)
	if len(at) != 2 || at[0] != 0 || at[1] != Time(3*time.Microsecond) {
		t.Fatalf("StepUntil returned at %v, want [0s 3µs]", at)
	}
	if st := k.Stats(); st.Steps != 2 || st.SelfWakes != 1 || st.Switches != 1 || st.Events != 4 {
		t.Fatalf("stats %+v: want 2 steps, 1 self-wake, 1 switch (the start), 4 events", st)
	}
}

// TestStepUntilMisuse: a nested StepUntil, a step that blocks (at once or
// inline on a later wake) and a step that returns true without arming a
// wake are bugs in the step and panic naming the process.
func TestStepUntilMisuse(t *testing.T) {
	cases := []struct {
		name string
		step func(p *Proc) bool
	}{{
		"nested", func(p *Proc) bool {
			p.StepUntil(func(*Proc) bool { return false })
			return false
		},
	}, {
		"blocks", func(p *Proc) bool {
			p.Hold(time.Microsecond)
			return true
		},
	}, {
		"blocks-later", func(p *Proc) bool {
			if p.Now() > 0 {
				p.Hold(time.Microsecond)
			}
			p.Arm(time.Microsecond)
			return true
		},
	}, {
		"unarmed", func(*Proc) bool { return true },
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel(1)
			k.Spawn("misuser-"+c.name, func(p *Proc) { p.StepUntil(c.step) })
			mustPanicNaming(t, "misuser-"+c.name, func() { k.Run(0) })
		})
	}
}

// TestStepUntilCloseUnwinds: a coroutine parked inside StepUntil when the
// queue drains is blocked like any parked process, and Close unwinds its
// body — deferred calls run — so no goroutine is left behind.
func TestStepUntilCloseUnwinds(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	ch := NewChan[int](k)
	unwound := false
	k.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		p.StepUntil(func(p *Proc) bool {
			ch.Await(p, -1) // never sent to
			return true
		})
		t.Error("StepUntil returned without a send")
	})
	k.Run(0)
	if len(k.live) != 1 || blocked(k) != 1 {
		t.Fatalf("before Close: alive=%d blocked=%d, want 1 and 1", len(k.live), blocked(k))
	}
	k.Close()
	if len(k.live) != 0 || !unwound {
		t.Fatalf("after Close: alive=%d unwound=%v, want 0 and true", len(k.live), unwound)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after Close, %d before the run", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// contender takes turns on a shared resource: each round it thinks for a
// random time, then occupies one unit for a random time and logs the grant
// and release times. run is the contender as a coroutine (through use) and
// step as a step process (through AcquireStep, Arm and Release); both draw
// the same durations at the same wakes, so both must produce the same
// events.
type contender struct {
	name   string
	r      *Resource
	rng    *rand.Rand
	rounds int
	log    *strings.Builder

	// step-process state between wakes
	round int
	phase int // 0 round start, 1 thinking, 2 queued, 3 holding
	d     Duration
	grant Time
}

func (c *contender) think() Duration { return time.Duration(c.rng.Intn(20)) * time.Microsecond }
func (c *contender) hold() Duration  { return time.Duration(1+c.rng.Intn(9)) * time.Microsecond }

func (c *contender) logRelease(grant, release Time) {
	fmt.Fprintf(c.log, "%s %d-%d\n", c.name, grant, release)
}

func (c *contender) run(p *Proc) {
	for ; c.round < c.rounds; c.round++ {
		p.Hold(c.think())
		d := c.hold()
		use(p, c.r, 1, d)
		c.logRelease(p.Now()-Time(d), p.Now())
	}
}

func (c *contender) step(p *Proc) bool {
	for {
		switch c.phase {
		case 0:
			if c.round == c.rounds {
				return false
			}
			c.phase = 1
			p.Arm(c.think())
			return true
		case 1:
			c.d, c.phase = c.hold(), 2
		case 2:
			if !c.r.AcquireStep(p, 1) {
				return true
			}
			c.grant, c.phase = p.Now(), 3
			p.Arm(c.d)
			return true
		case 3:
			c.r.Release(1)
			c.logRelease(c.grant, p.Now())
			c.round, c.phase = c.round+1, 0
		}
	}
}

// contention runs six contenders on one capacity-1 resource, plus
// callbacks that each start a step process to queue for the resource once
// and hold it. With mixed set, the first contender is a step process and
// each other one a coroutine or a step process at random; otherwise all
// are coroutines. It returns the grant log, the wake trace and the
// kernel's counters.
func contention(seed int64, mixed bool) (grants, wakes string, st Stats) {
	k := NewKernel(seed)
	w := &wakeTrace{}
	k.SetTracer(w)
	rng := rand.New(rand.NewSource(seed))
	r := NewResource(k, "link", 1)
	var log strings.Builder
	for i := 0; i < 6; i++ {
		c := &contender{name: fmt.Sprintf("c%d", i), r: r, rng: rand.New(rand.NewSource(rng.Int63())), rounds: 5 + rng.Intn(10), log: &log}
		if stepped := rng.Intn(2) == 0 || i == 0; stepped && mixed {
			k.SpawnStepOn(i%3, c.name, c.step)
		} else {
			k.SpawnOn(i%3, c.name, c.run)
		}
	}
	for i := 0; i < 20; i++ {
		at, d := Time(rng.Intn(200))*Time(time.Microsecond), time.Duration(1+rng.Intn(5))*time.Microsecond
		k.CallAt(at, func() {
			held := false
			k.SpawnStepOn(0, "grabber", func(p *Proc) bool {
				if held {
					r.Release(1)
					return false
				}
				if !r.AcquireStep(p, 1) {
					return true
				}
				fmt.Fprintf(&log, "grabber %d-%d\n", p.Now(), p.Now().Add(d))
				held = true
				p.Arm(d)
				return true
			})
		})
	}
	k.Run(0)
	return log.String(), w.b.String(), k.Stats()
}

// blockingContentionRuns pins contention with coroutine contenders, seeds 1
// to 20 (the digest of its grant log, wake trace and Events, Stale and
// Callbacks), as recorded when the contenders blocked in Resource.Use.
var blockingContentionRuns = [...]string{
	"062b92733078d500", "ae9d29084c55cab4", "a7c071e2766ca00e", "6beb91baf2624caf", "157f295b1fe8781d",
	"66f6b7b174f03a68", "eca85aed3a140ba4", "80996c3c5449e3ea", "94f7c61c0dbfc500", "b9d1a261887e7f36",
	"e6a50c7bf69a7a4d", "7a6fb5d6e8aeadc3", "e2c752f3dd024158", "4ef3d16319e16580", "7148e33625b59c5c",
	"d5ec0a799f609e3f", "01c943604d328d07", "b94089bc24d81dda", "6fa68aad72c14c15", "cfb6e527832b2d02",
}

// TestAcquireStepMatchesAcquire: contenders queueing on one capacity-1
// resource get the same grants at the same times, with the same wakes and
// trajectory counters, as recorded when coroutines blocked in Use, whether
// each is a coroutine taking the resource through AcquireStep inside
// StepUntil or a step process; only the counters that say how a wake ran
// may differ.
func TestAcquireStepMatchesAcquire(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		coGrants, coWakes, coSt := contention(seed, false)
		mxGrants, mxWakes, mxSt := contention(seed, true)
		if got, want := digest(coGrants, coWakes, fmt.Sprintf("%d %d %d", coSt.Events, coSt.Stale, coSt.Callbacks)), blockingContentionRuns[seed-1]; got != want {
			t.Fatalf("seed %d: coroutine run %s, want the blocking run's %s", seed, got, want)
		}
		if coGrants != mxGrants {
			t.Fatalf("seed %d: grants differ:\ncoroutines\n%s\nmixed\n%s", seed, coGrants, mxGrants)
		}
		if coWakes != mxWakes {
			t.Fatalf("seed %d: wake traces differ", seed)
		}
		if coSt.Events != mxSt.Events || coSt.Stale != mxSt.Stale || coSt.Callbacks != mxSt.Callbacks {
			t.Fatalf("seed %d: stats differ:\ncoroutines %+v\nmixed      %+v", seed, coSt, mxSt)
		}
		if mxSt.Steps <= coSt.Steps || mxSt.Events != mxSt.Switches+mxSt.SelfWakes+mxSt.Steps+mxSt.Callbacks {
			t.Fatalf("seed %d: coroutines %+v, mixed %+v: the step contenders must run as steps", seed, coSt, mxSt)
		}
	}
}

// TestAcquireStepFromCoroutine: AcquireStep is for step processes; a
// coroutine calling it panics naming itself, even when the resource is free.
func TestAcquireStepFromCoroutine(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "link", 1)
	k.Spawn("acquirer", func(p *Proc) { r.AcquireStep(p, 1) })
	mustPanicNaming(t, "acquirer", func() { k.Run(0) })
}
