package ocl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cashmere/internal/device"
	"cashmere/internal/simnet"
)

// wakeLog records every process slice and queue-depth sample of a kernel.
type wakeLog struct{ b strings.Builder }

func (w *wakeLog) ProcSlice(name string, id int, start, end simnet.Time) {
	fmt.Fprintf(&w.b, "%s#%d %d-%d\n", name, id, start, end)
}

func (w *wakeLog) QueueDepth(t simnet.Time, depth int) { fmt.Fprintf(&w.b, "q %d %d\n", t, depth) }

// user drives one device for a few rounds: think, then — with mem — take a
// share of device memory, then — with events — run a write → kernel → read
// chain and wait for it (sometimes for the kernel first), then hold and
// free the memory, reusing one buffer. run is the user as a coroutine
// (alloc, Wait); step is the user as a step process (AllocStep, Await).
// Both draw the same values at the same wakes, so both must produce the
// same events.
type user struct {
	name        string
	d           *Device
	rng         *rand.Rand
	rounds      int
	mem, events bool
	log         *strings.Builder
	t           *testing.T

	own Buffer // the user's device memory

	// step-process state between wakes
	round int
	phase int // 0 round start, 1 thinking, 2 allocating, 3 waiting, 4 holding
	size  int64
	ev    Event // the event waited for
	read  Event // the chain's last event, when ev is its kernel
}

var userCost = device.KernelCost{Flops: 2e9, MemBytes: 1e9, ComputeEff: 0.5, BandwidthEff: 0.5}

func (u *user) think() time.Duration { return time.Duration(u.rng.Intn(50)) * time.Microsecond }
func (u *user) hold() time.Duration  { return time.Duration(1+u.rng.Intn(200)) * time.Microsecond }

// share draws an allocation of 0.2 to 0.7 of the device's memory, so two
// or three users at once exhaust it.
func (u *user) share() int64 {
	return u.d.Spec().GlobalMem / 10 * int64(2+u.rng.Intn(6))
}

// chain enqueues the round's transfers and kernel and returns the kernel's
// event and the read's; firstKernel reports whether the user waits for the
// kernel before the read.
func (u *user) chain() (kern, read Event, firstKernel bool) {
	n := int64(1+u.rng.Intn(64)) << 20
	w := u.d.EnqueueWrite(n, "")
	kern = u.d.EnqueueLaunch(userCost, "", w)
	read = u.d.EnqueueRead(n/2, "", kern)
	return kern, read, u.rng.Intn(2) == 0
}

func (u *user) logf(what string, now simnet.Time) {
	fmt.Fprintf(u.log, "%s %s %d\n", u.name, what, now)
}

func (u *user) run(p *simnet.Proc) {
	for ; u.round < u.rounds; u.round++ {
		p.Hold(u.think())
		if u.mem {
			if err := alloc(p, u.d, &u.own, u.share()); err != nil {
				u.t.Error(err)
				return
			}
			u.logf("alloc", p.Now())
		}
		if u.events {
			kern, read, first := u.chain()
			if first {
				kern.Wait(p)
				u.logf("kernel", p.Now())
			}
			read.Wait(p)
			u.logf("read", p.Now())
		}
		p.Hold(u.hold())
		if u.mem {
			u.own.Free()
		}
	}
}

func (u *user) step(p *simnet.Proc) bool {
	for {
		switch u.phase {
		case 0:
			if u.round == u.rounds {
				return false
			}
			u.phase = 1
			p.Arm(u.think())
			return true
		case 1:
			u.phase = 3
			if u.mem {
				u.size, u.phase = u.share(), 2
			}
			if u.phase == 3 && u.events {
				u.startChain()
			}
		case 2:
			ok, err := u.d.AllocStep(p, &u.own, u.size)
			if err != nil {
				u.t.Error(err)
				return false
			}
			if !ok {
				return true
			}
			u.logf("alloc", p.Now())
			u.phase = 3
			if u.events {
				u.startChain()
			}
		case 3:
			if u.events {
				if !u.ev.Await(p) {
					return true
				}
				if u.read != (Event{}) {
					u.logf("kernel", p.Now())
					u.ev, u.read = u.read, Event{}
					continue
				}
				u.logf("read", p.Now())
			}
			u.phase = 4
			p.Arm(u.hold())
			return true
		case 4:
			if u.mem {
				u.own.Free()
			}
			u.round, u.phase = u.round+1, 0
		}
	}
}

// startChain enqueues the round's chain and sets what the step waits for.
func (u *user) startChain() {
	kern, read, first := u.chain()
	u.ev, u.read = read, Event{}
	if first {
		u.ev, u.read = kern, read
	}
}

// deviceUsers runs six users on one gtx480 (one DMA engine, so transfers
// queue behind each other). With mixed set, the first user is a step
// process and each other one a coroutine or a step process at random;
// otherwise all are coroutines. It returns the users' log, the wake trace
// and the kernel's counters.
func deviceUsers(t *testing.T, seed int64, mixed, mem, events bool) (log, wakes string, st simnet.Stats) {
	k := simnet.NewKernel(seed)
	w := &wakeLog{}
	k.SetTracer(w)
	spec, _ := device.Lookup("gtx480")
	d := NewDevice(k, spec, 0, 0, nil)
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < 6; i++ {
		u := &user{name: fmt.Sprintf("u%d", i), d: d, rng: rand.New(rand.NewSource(rng.Int63())), rounds: 3 + rng.Intn(5), mem: mem, events: events, log: &b, t: t}
		if stepped := rng.Intn(2) == 0 || i == 0; stepped && mixed {
			k.SpawnStepOn(0, u.name, u.step)
		} else {
			k.SpawnOn(0, u.name, u.run)
		}
	}
	k.Run(0)
	if mem && d.MemUsed() != 0 {
		t.Fatalf("seed %d: %d bytes still allocated", seed, d.MemUsed())
	}
	k.Close()
	return b.String(), w.b.String(), k.Stats()
}

// sameDeviceRun fails the test unless the run with step processes matches
// the all-coroutine run: the same log, the same wakes and the same
// trajectory counters, with the step processes' wakes run as steps. It
// returns the digest of the all-coroutine run's log, wakes and Events,
// Stale and Callbacks.
func sameDeviceRun(t *testing.T, seed int64, mem, events bool) string {
	t.Helper()
	coLog, coWakes, coSt := deviceUsers(t, seed, false, mem, events)
	mxLog, mxWakes, mxSt := deviceUsers(t, seed, true, mem, events)
	if coLog != mxLog {
		t.Fatalf("seed %d: logs differ:\ncoroutines\n%s\nmixed\n%s", seed, coLog, mxLog)
	}
	if coWakes != mxWakes {
		t.Fatalf("seed %d: wake traces differ", seed)
	}
	if coSt.Events != mxSt.Events || coSt.Stale != mxSt.Stale || coSt.Callbacks != mxSt.Callbacks {
		t.Fatalf("seed %d: stats differ:\ncoroutines %+v\nmixed      %+v", seed, coSt, mxSt)
	}
	if mxSt.Steps <= coSt.Steps || mxSt.Events != mxSt.Switches+mxSt.SelfWakes+mxSt.Steps+mxSt.Callbacks {
		t.Fatalf("seed %d: coroutines %+v, mixed %+v: the step users must run as steps", seed, coSt, mxSt)
	}
	return digest(coLog, coWakes, fmt.Sprintf("%d %d %d", coSt.Events, coSt.Stale, coSt.Callbacks))
}

// digest is a short hash of a run's outputs, for pinning them as literals.
func digest(parts ...string) string {
	h := sha256.New()
	for _, s := range parts {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestEventAwaitMatchesWait: users waiting for their command chains see
// them complete at the same times, with the same wakes and trajectory
// counters, whether each is a coroutine in Event.Wait or a step process
// using Event.Await.
func TestEventAwaitMatchesWait(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sameDeviceRun(t, seed, false, true)
	}
}

// blockingAllocRuns pins deviceUsers with coroutine users and memory, seeds
// 1 to 20, without and with command chains (sameDeviceRun's digest), as
// recorded when the coroutines allocated through AllocBlocking.
var blockingAllocRuns = [...][2]string{
	{"9e1a6c58d531c928", "94de72eb8a0248ea"}, {"2154f0b1551c7c79", "0f2127bfd679852f"},
	{"28dbedf25bc10ae2", "5f08dee75707dac1"}, {"91fa3ece372e74d6", "e1e5c2994007dace"},
	{"08b44407b7c387fe", "3fe8f75db0304f39"}, {"0ad3cc210a3ee162", "fff7d8fef3c81f70"},
	{"1e67aa04c32b1fc9", "17f556a18a78452b"}, {"305f5c66188838bf", "9a253f185d53eade"},
	{"918ed1c09850fd6a", "55fef42ee6302e81"}, {"b5f84033bae94fc2", "4c2181efe3b926c5"},
	{"506a95feddea6874", "344aa7bad832092b"}, {"3013bef8f70efcc0", "c55dcdb87f8d57a5"},
	{"6d769e8faaf46a39", "c61bc582145ba6ad"}, {"0d04dd502bac52be", "805bdb65e1844054"},
	{"4544902ad3e4f31a", "57c7a3c62c248fc9"}, {"7144d1a14a8fadfb", "f8206e009a0bc76a"},
	{"786eecc9cea4b928", "70df41ca3c2ba139"}, {"65faeb5e71b6a65a", "e7f0e75450b82d72"},
	{"12702f30bb8a0d31", "09d6f1612ad6e629"}, {"f35bd24ce4d15a3f", "27d1343d5ecabdad"},
}

// TestAllocStepMatchesAllocBlocking: users contending for device memory
// get it at the same times, with the same wakes and trajectory counters,
// as recorded when coroutines blocked in AllocBlocking, whether each is a
// coroutine allocating through AllocStep inside StepUntil or a step
// process; the second case also runs command chains on the memory.
func TestAllocStepMatchesAllocBlocking(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for i, events := range []bool{false, true} {
			if got, want := sameDeviceRun(t, seed, true, events), blockingAllocRuns[seed-1][i]; got != want {
				t.Fatalf("seed %d, chains %v: coroutine run %s, want the blocking run's %s", seed, events, got, want)
			}
		}
	}
}

// TestStepFormsFromCoroutine: Await on an incomplete event and AllocStep
// while memory is short are for step processes; a coroutine calling either
// panics naming itself. A complete event needs no wait, so Await on one
// reports true from any process.
func TestStepFormsFromCoroutine(t *testing.T) {
	spec, _ := device.Lookup("gtx480")
	k := simnet.NewKernel(1)
	d := NewDevice(k, spec, 0, 0, nil)
	k.Spawn("awaiter", func(p *simnet.Proc) {
		if !(Event{}).Await(p) {
			t.Error("Await on the zero event reported false")
		}
		d.EnqueueWrite(1<<20, "").Await(p)
	})
	mustPanicNaming(t, "awaiter", func() { k.Run(0) })

	k = simnet.NewKernel(1)
	d = NewDevice(k, spec, 0, 0, nil)
	mustReserve(t, d, spec.GlobalMem)
	k.Spawn("allocator", func(p *simnet.Proc) {
		var b Buffer
		d.AllocStep(p, &b, 1)
	})
	mustPanicNaming(t, "allocator", func() { k.Run(0) })
}

// TestAllocStepIntoLiveBuffer: a step process must free its buffer before
// allocating into it again.
func TestAllocStepIntoLiveBuffer(t *testing.T) {
	spec, _ := device.Lookup("gtx480")
	k := simnet.NewKernel(1)
	d := NewDevice(k, spec, 0, 0, nil)
	var b Buffer
	var second any
	k.SpawnStepOn(0, "reuser", func(p *simnet.Proc) bool {
		if ok, err := d.AllocStep(p, &b, 1<<20); !ok || err != nil {
			t.Errorf("first AllocStep: %v %v", ok, err)
		}
		func() {
			defer func() { second = recover() }()
			d.AllocStep(p, &b, 1<<20)
		}()
		return false
	})
	k.Run(0)
	if second == nil {
		t.Fatal("AllocStep into a live buffer did not panic")
	}
	if d.MemUsed() != 1<<20 {
		t.Fatalf("%d bytes in use, want the first allocation only", d.MemUsed())
	}
}

// mustPanicNaming runs f and fails the test unless it panics with a
// message naming the process.
func mustPanicNaming(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one naming %s", name)
		}
		if !strings.Contains(fmt.Sprint(r), name) {
			t.Fatalf("panic %q does not name %s", r, name)
		}
	}()
	f()
}
