// Package simnet provides a process-oriented discrete-event simulation
// kernel. It is the substrate on which the Cashmere reproduction models a
// cluster: Satin workers, network links, PCIe engines and many-core devices
// all run as cooperative processes over a shared virtual clock.
//
// The design follows the classic process-interaction style (as in SimPy or
// SSF): a simulated activity is a process bound to a Proc, and at most one
// process runs at a time. Events with equal timestamps fire in a fixed total
// order — by creating event stream, then by that stream's monotonically
// increasing sequence number (see event) — so a given program and seed
// always produce the same trajectory, on one kernel or split across
// partitions.
//
// A channel receive and a resource grant have one body each, their step
// form: Chan.Await (with an optional deadline) and Resource.AcquireStep. A
// step also sleeps with Proc.Arm and waits for a broadcast condition with
// WaitList.Arm. A step arms its next wake and returns instead of blocking,
// and the kernel calls it inline on that wake. A step process (SpawnStepOn) is nothing but such a
// step: the layers above run their message reactors this way — Satin's
// comm loops, the network's receive-side couriers and the serving
// frontend's arrival generators. A coroutine (Spawn) waits through the same
// forms with Proc.StepUntil: its body stays suspended while the steps run
// and resumes only at the wake whose step hands back, so a loop that mostly
// waits (an idle work-stealing thief, an idle ProcPool runner, a message
// send) switches only when it has work to do. The serving layer's
// dispatcher slots and batch servers wait for work, device memory, a
// launch's last command, the network links and replies this way, through
// the step forms of the layers above (ocl.Event.Await,
// ocl.Device.AllocStep, core.Launch.Step, network.Endpoint.BeginSend/
// FinishSend).
//
// A coroutine also blocks in place, with Proc.Hold and HoldUntil,
// Future.Await and AwaitTimeout, and WaitList.Park. Those serve user
// divide-and-conquer code — Satin jobs and many-core threads that compute,
// sync and wait for device events in direct style — which a step machine
// cannot express.
// A blocked coroutine pops the next runnable event itself. When that event
// belongs to the parking process — the common case for a lone process
// sleeping through Hold — the wake needs no switch at all. Otherwise the
// process records the event's owner as the kernel's handoff and yields, and
// Run's loop resumes the owner. Resuming and yielding are coroutine switches
// (iter.Pull), which hand the thread over directly without a trip through
// the Go scheduler's run queue.
//
// A parked process has at most one entry in the event queue. A second wake
// for the same park — the reply that beats a receive's deadline, say — is
// folded into the pending entry: the earlier of the two keeps it, and the
// other is counted as stale without ever being queued. Superseded timeouts
// therefore cost no heap space and no sift work, and the queue stays as deep
// as the number of parked processes with a wake due.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time. It aliases time.Duration so the
// standard constants (time.Microsecond etc.) can be used directly.
type Duration = time.Duration

// String formats a Time using the standard duration notation.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds reports the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// event is the payload of a scheduled resumption of a process (p != nil) or
// of a scheduled callback (fn != nil, posted by CallAt). Proc events never
// carry work themselves; callbacks run a short completion action — marking a
// device command-queue operation done, starting the next one — without
// parking a process for the operation's modeled duration.
//
// The event's time and its (stream, sseq) creation stamp live in its queue
// entry, not here (see eventQueue): the event stream (simulated node) whose
// execution posted the event, and that stream's own sequence number. They
// form the total order (t, stream, sseq) used by the queue, which is what
// makes a partitioned run's trajectory independent of the partition layout:
// a stream's activity executes serially on the one kernel owning its node in
// every layout, so its counter assigns identical stamps no matter how the
// nodes are partitioned. On a standalone kernel with a single stream the
// order degenerates to the legacy (t, seq) creation order. Callback events
// additionally carry the stream they execute under (exec): a network
// delivery is created by the sender's stream but runs as the destination
// node, so everything it posts counts on the destination's counter — which
// lives on the destination's kernel in every layout.
type event struct {
	p     *Proc
	fn    func() // callback; mutually exclusive with p
	epoch uint64 // park epoch the event is allowed to wake
	exec  int32  // stream a callback executes under
}

// Kernel is a discrete-event simulation kernel. The zero value is not usable;
// create one with NewKernel.
//
// A Kernel and everything built on it (processes, channels, resources,
// fabrics, runtimes) is confined to one goroutine-serialized simulation;
// distinct kernels share nothing and may run concurrently from different
// goroutines, which is what the parallel experiment harness does.
type Kernel struct {
	now     Time
	pq      eventQueue
	handoff *Proc   // the process Run resumes next, set by the one that yields
	live    []*Proc // processes whose body has not returned (Proc.live indexes it)
	running bool
	closed  bool // set by Close; a process stopped afterwards unwinds
	limit   Time // Run's cutoff, 0 = none; read by parking processes too
	strict  bool // events exactly at limit do NOT fire (RunBefore windows)
	rng     *rand.Rand
	seed    int64
	procSeq int
	part    int32 // partition id (0 for a standalone kernel)

	// curStream is the event stream (simulated node) of the currently
	// executing context; streamSeq holds one creation counter per stream
	// hosted on this kernel. Together they assign the (stream, sseq) stamps
	// that make heap order independent of the partition layout. Stream 0 is
	// the default for everything not bound to a node with SpawnOn.
	curStream int32
	streamSeq []uint64

	// stats are the always-on scheduling counters returned by Stats. Plain
	// integer increments on the hot path cost nothing measurable and never
	// allocate, so they need no enable switch.
	stats Stats

	// tracer, when non-nil, receives scheduling callbacks (process run
	// slices, event-queue depth). The package cannot import the trace
	// package (trace depends on simnet for Time), so the observability
	// layer installs an adapter through this interface. A nil tracer costs
	// one pointer check per park.
	tracer Tracer
}

// Stats are the kernel's scheduling counters, maintained unconditionally.
type Stats struct {
	Events    int64 // events dispatched (process wakes + callbacks)
	SelfWakes int64 // wakes of the parking process itself, with no switch
	Switches  int64 // coroutine resumes of a process by Run's loop
	Steps     int64 // wakes of step processes, run inline with no switch
	Stale     int64 // wakes that never fired: superseded within their park, or posted after it
	Spawns    int64 // processes created
	Callbacks int64 // callback events run (CallAt completions; never switch)
	MaxQueue  int   // high-water mark of the pending event queue
}

// Stats returns a snapshot of the scheduling counters. It must not be
// called while Run is executing on another goroutine.
func (k *Kernel) Stats() Stats { return k.stats }

// Tracer receives scheduling instrumentation from a running kernel. The
// observability layer implements it to convert callbacks into trace spans
// and gauges; see SetTracer.
type Tracer interface {
	// ProcSlice reports that process name/id ran from start until it
	// parked (or exited) at end, in virtual time.
	ProcSlice(name string, id int, start, end Time)
	// QueueDepth reports the pending-event-queue depth at time t, sampled
	// once per dispatched event.
	QueueDepth(t Time, depth int)
}

// SetTracer installs a scheduling tracer (nil disables). Must be called
// before Run.
func (k *Kernel) SetTracer(tr Tracer) { k.tracer = tr }

// NewKernel returns a kernel with its clock at zero. The seed initializes the
// kernel-owned random source returned by Rand.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:  rand.New(rand.NewSource(seed)),
		seed: seed,
	}
}

// Seed returns the seed the kernel was created with. Layers that shard their
// randomness per simulated node derive their per-node streams from it, so
// their trajectories do not depend on which partition a node landed on.
func (k *Kernel) Seed() int64 { return k.seed }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from simulation processes (which are serialized), never from outside
// Run.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Proc is a simulation process: a coroutine that runs simulation logic in
// direct style, blocking on virtual-time primitives, or a step process (see
// SpawnStepOn) that reacts to each wake with one call of its step function.
type Proc struct {
	k      *Kernel
	name   string
	id     int
	next   func() (struct{}, bool) // resumes the body until it parks or returns
	stop   func()                  // unwinds a parked body (Close)
	yield  func(struct{}) bool     // suspends the body; false once stopped
	step   func(*Proc) bool        // a step process's body, or a coroutine's inside StepUntil; nil otherwise
	done   bool
	epoch  uint64 // incremented on every wake; stale wake events are ignored
	parked bool
	stream int32 // event stream the process posts under (its node)
	slot   int32 // event-queue slab id of the pending wake, -1 when none
	live   int32 // index in Kernel.live

	wokenAt Time // when the proc was last resumed (for Tracer slices)
}

// Name reports the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID reports a small unique integer identifying the process.
func (p *Proc) ID() int { return p.id }

// Kernel returns the kernel the process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// stampOn draws the next creation-sequence number of the given stream.
func (k *Kernel) stampOn(s int32) uint64 {
	for int(s) >= len(k.streamSeq) {
		k.streamSeq = append(k.streamSeq, 0)
	}
	k.streamSeq[s]++
	return k.streamSeq[s]
}

// post schedules a wake event for p at time t against the given park epoch,
// stamped with the executing context's stream.
func (k *Kernel) post(t Time, p *Proc, epoch uint64) {
	k.postOn(k.curStream, t, p, epoch)
}

// postOn is post with an explicit creating stream (used by SpawnOn, where
// the creator is setup code rather than a node's own execution).
//
// The stamp is drawn first, whatever happens to the wake, so every later
// stamp is the same as if each wake were queued. A wake that can never fire
// — its park epoch has passed, or the process finished — is counted stale
// and dropped. A wake for a process that already has one pending is folded
// into that entry: the earlier of the two (by heap order) is kept, and the
// other counts as stale, exactly as if it had been queued and skipped when
// popped. Either way the process keeps a single heap entry.
func (k *Kernel) postOn(s int32, t Time, p *Proc, epoch uint64) {
	if t < k.now {
		t = k.now
	}
	sseq := k.stampOn(s)
	if epoch != p.epoch || p.done {
		k.stats.Stale++
		return
	}
	if p.slot >= 0 {
		k.stats.Stale++
		k.pq.advance(p.slot, t, packKey(s, sseq))
		return
	}
	k.enqueue(t, packKey(s, sseq), event{p: p, epoch: epoch})
}

// enqueue pushes an event and tracks the queue's high-water mark.
func (k *Kernel) enqueue(t Time, key uint64, e event) {
	k.pq.push(t, key, e)
	if n := k.pq.len(); n > k.stats.MaxQueue {
		k.stats.MaxQueue = n
	}
}

// CallAt schedules fn to run at virtual time t (or now, if t is in the
// past), with no process attached: the callback fires directly from the
// event loop, in whichever context pops it. It is the completion hook
// behind the ocl command queues — an enqueued device operation costs one
// heap entry instead of a parked process.
//
// Callbacks must be short and must not block on virtual-time primitives
// (no Hold, Await, StepUntil); they may post further events, wake
// processes, call CallAt again, or Spawn.
func (k *Kernel) CallAt(t Time, fn func()) {
	k.callAtExec(t, fn, k.curStream)
}

// callAtExec is CallAt with an explicit execution stream: the callback is
// stamped by the current (creating) stream but runs as exec, so everything
// it posts counts on exec's creation counter. The partitioned scheduler
// uses it to hand a message delivery to the destination node's stream.
func (k *Kernel) callAtExec(t Time, fn func(), exec int32) {
	if fn == nil {
		panic("simnet: CallAt with nil callback")
	}
	if t < k.now {
		t = k.now
	}
	k.enqueue(t, packKey(k.curStream, k.stampOn(k.curStream)), event{fn: fn, exec: exec})
}

// CallAfter schedules fn to run d from now (see CallAt).
func (k *Kernel) CallAfter(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.CallAt(k.now.Add(d), fn)
}

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. It may be called before Run or from inside a running
// process. The process inherits the spawning context's event stream, so
// activities spawned by a node's own execution stay on that node's stream.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawnAt(k.now, k.curStream, name, fn)
}

// SpawnAt creates a process executing fn and schedules it to start at time t
// (or now, if t is in the past).
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	return k.spawnAt(t, k.curStream, name, fn)
}

// SpawnOn creates a process bound to the event stream of simulated node
// `stream`, starting at the current virtual time. Layers that shard their
// processes per node (the Satin runtime's comm loops and workers) spawn
// them with this so every event the process posts carries its node's
// stream stamp — the property that makes trajectories independent of the
// partition layout. The stream's node must be owned by this kernel, and
// stream must lie in [0, 2^20): SpawnOn panics naming the process otherwise.
func (k *Kernel) SpawnOn(stream int, name string, fn func(p *Proc)) *Proc {
	return k.spawnAt(k.now, checkStream(stream, name), name, fn)
}

// SpawnStepOn creates a step process bound to the event stream of node
// `stream`, starting at the current virtual time. The kernel calls step
// inline on every wake of the process — the first at its start — with the
// clock at the wake. step must not block: it arms the next wake with
// p.Arm or Chan.Await and returns true, or returns false once the process
// is finished. A step that returns true without arming a wake, or that
// blocks on a virtual-time primitive, panics naming the process, and so
// does a stream outside [0, 2^20).
func (k *Kernel) SpawnStepOn(stream int, name string, step func(p *Proc) bool) *Proc {
	p := k.newProc(checkStream(stream, name), name)
	p.step = step
	k.postOn(p.stream, k.now, p, p.epoch)
	return p
}

// checkStream returns stream as an event-stream id, panicking, with the
// process's name, when it is outside the range an order key can hold (see
// packKey).
func checkStream(stream int, name string) int32 {
	if stream < 0 || stream >= maxStreams {
		panic(fmt.Sprintf("simnet: process %s: stream %d outside [0, %d)", name, stream, maxStreams))
	}
	return int32(stream)
}

// newProc registers a process that its initial start event will wake.
func (k *Kernel) newProc(stream int32, name string) *Proc {
	k.procSeq++
	p := &Proc{k: k, name: name, id: k.procSeq, stream: stream, slot: -1, live: int32(len(k.live))}
	k.live = append(k.live, p)
	k.stats.Spawns++
	p.parked = true
	return p
}

func (k *Kernel) spawnAt(t Time, stream int32, name string, fn func(p *Proc)) *Proc {
	p := k.newProc(stream, name)
	p.next, p.stop = pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// Only a closed kernel stops its processes, so only then can the
			// unwinding panic be errClosed; any other panic reaches Run.
			if k.closed {
				if r := recover(); r != nil && r != errClosed {
					panic(r)
				}
			}
		}()
		fn(p)
		p.exit()
	})
	k.postOn(stream, t, p, p.epoch)
	return p
}

// errClosed is the panic that unwinds a parked process stopped by Close,
// running its deferred calls on the way out.
var errClosed = errors.New("simnet: process stopped by Close")

// exit retires a process whose body returned and picks the next process for
// Run's loop to resume.
func (p *Proc) exit() {
	p.retire()
	p.k.handoff = p.k.next()
}

// retire marks a finished process done and drops it from the live set.
func (p *Proc) retire() {
	k := p.k
	p.done = true
	if k.tracer != nil {
		k.tracer.ProcSlice(p.name, p.id, p.wokenAt, k.now)
	}
	last := k.live[len(k.live)-1]
	last.live = p.live
	k.live[p.live] = last
	k.live = k.live[:len(k.live)-1]
}

// park suspends the process until a wake event targeted at the current
// epoch fires.
func (p *Proc) park() {
	if p.step != nil {
		panic(fmt.Sprintf("simnet: step process %s blocked; a step must arm its wake and return", p.name))
	}
	p.parked = true
	p.suspend()
}

// suspend yields the thread of a parked coroutine until its body resumes.
// The process pops the next event itself: if it resumes this very body,
// suspend returns without a switch; otherwise the event's owner (or nil,
// when nothing is left below the limit) becomes the kernel's handoff and
// the process yields to Run's loop.
func (p *Proc) suspend() {
	k := p.k
	if k.tracer != nil {
		k.tracer.ProcSlice(p.name, p.id, p.wokenAt, k.now)
	}
	next := k.next()
	if next == p {
		k.stats.SelfWakes++
		return
	}
	k.handoff = next
	if !p.yield(struct{}{}) {
		panic(errClosed)
	}
}

// next pops events up to the run's limit, running callbacks and steps
// inline and skipping stale wakes, until one resumes a coroutine body — a
// coroutine's wake, or the wake at which a StepUntil step hands back; it
// advances the clock to that event and returns the process, or nil when no
// event is left below the limit.
func (k *Kernel) next() *Proc {
	for k.pq.len() > 0 {
		if k.limit > 0 {
			if t := k.pq.peek().t; t > k.limit || k.strict && t >= k.limit {
				return nil // leave it queued so a later run can continue
			}
		}
		t, _, e := k.pq.pop()
		if e.fn != nil {
			// Callback event: run it inline in the running context and keep
			// going. Never a switch.
			k.now = t
			k.curStream = e.exec
			k.stats.Events++
			k.stats.Callbacks++
			if k.tracer != nil {
				k.tracer.QueueDepth(t, k.pq.len())
			}
			e.fn()
			continue
		}
		if e.p.done || !e.p.parked || e.p.epoch != e.epoch {
			k.stats.Stale++
			continue // stale wake
		}
		k.now = t
		k.curStream = e.p.stream
		k.stats.Events++
		if k.tracer != nil {
			k.tracer.QueueDepth(t, k.pq.len())
		}
		p := e.p
		p.parked = false
		p.epoch++
		p.wokenAt = t
		if p.step == nil {
			return p
		}
		if !p.step(p) {
			if p.next != nil {
				// StepUntil hands back: the body resumes at this wake.
				p.step = nil
				return p
			}
			p.retire()
		} else {
			p.mustBeArmed()
			if k.tracer != nil {
				k.tracer.ProcSlice(p.name, p.id, p.wokenAt, k.now)
			}
		}
		k.stats.Steps++
	}
	return nil
}

// mustBeArmed panics when a step that keeps going armed no wake.
func (p *Proc) mustBeArmed() {
	if !p.parked {
		panic(fmt.Sprintf("simnet: step process %s returned without arming a wake", p.name))
	}
}

// StepUntil runs coroutine p as a step process (see SpawnStepOn) until step
// returns false. step runs at once and then inline in the event loop on
// every later wake, arming each next wake with Arm or Chan.Await; StepUntil
// returns at the wake whose step returned false (at once, if the first
// call does), with the clock at that wake. The process keeps its identity,
// stream and wakes, so every event is exactly that of the same waits
// written as blocking calls; only the body stays suspended, and a wake
// that keeps stepping costs no switch. step must not block or call
// StepUntil, and must arm a wake whenever it returns true: each misuse
// panics naming the process.
func (p *Proc) StepUntil(step func(*Proc) bool) {
	if p.step != nil {
		panic(fmt.Sprintf("simnet: %s called StepUntil inside a step", p.name))
	}
	p.step = step
	if !step(p) {
		p.step = nil
		return
	}
	p.mustBeArmed()
	p.suspend()
}

// arm marks step process p as waiting for the wake it just scheduled or
// registered for.
func (p *Proc) arm() {
	p.mustStep()
	p.parked = true
}

// mustStep panics unless p runs as a step process (or inside StepUntil).
func (p *Proc) mustStep() {
	if p.step == nil {
		panic(fmt.Sprintf("simnet: %s is not a step process; it must park to wait", p.name))
	}
}

// Arm schedules step process p's next wake d from now: Hold for a step
// process, which returns from its step instead of blocking.
func (p *Proc) Arm(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.post(p.k.now.Add(d), p, p.epoch)
	p.arm()
}

// Hold advances the process's local time by d: the process sleeps in virtual
// time while other processes run.
func (p *Proc) Hold(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.post(p.k.now.Add(d), p, p.epoch)
	p.park()
}

// HoldUntil sleeps until the virtual clock reaches t. If t is in the past it
// yields and returns at the current time.
func (p *Proc) HoldUntil(t Time) {
	p.k.post(t, p, p.epoch)
	p.park()
}

// Run executes the simulation until no events remain or until limit is
// reached (limit <= 0 means no limit). It returns the final virtual time.
// An event scheduled exactly at the limit still fires — the cutoff is
// inclusive, for process wakes and CallAt callbacks alike (a regression
// test pins this boundary) — and a later Run call (with a larger limit, or
// none) continues the same trajectory where the previous one stopped.
// When an event past the limit stays queued, the clock is advanced to the
// limit; when the queue drains first, the clock stays at the last event.
// Superseded wakes are never queued, so a process whose only pending wake
// was superseded does not hold the clock back or push it to the limit.
// Processes still blocked on channels or resources when the event queue
// drains are left parked; Blocked can be used to detect unexpected deadlock
// and Close releases them once the simulation is finished.
func (k *Kernel) Run(limit Time) Time {
	k.runUntil(limit, false)
	if limit > 0 && k.now < limit && k.pq.len() > 0 {
		// Stopped on a queued out-of-window event: report (and resume from)
		// the limit itself, as Run always has.
		k.now = limit
	}
	return k.now
}

// RunBefore executes all events with timestamp strictly below horizon and
// returns the current virtual time. Unlike Run, the cutoff is exclusive and
// the clock is left at the last executed event, not advanced to the horizon.
// It is the window-execution primitive of the partitioned scheduler: a
// partition granted horizon H by the lookahead computation may run exactly
// the events with t < H.
func (k *Kernel) RunBefore(horizon Time) Time {
	if horizon <= 0 {
		panic("simnet: RunBefore needs a positive horizon")
	}
	k.runUntil(horizon, true)
	return k.now
}

// NextEventTime reports the timestamp of the earliest pending event. ok is
// false when the queue is empty. A superseded wake is never queued (see
// postOn), so the bound is the earliest event that can actually fire, and
// the partitioned scheduler's lookahead windows are as wide as the model
// allows.
func (k *Kernel) NextEventTime() (Time, bool) {
	if k.pq.len() == 0 {
		return 0, false
	}
	return k.pq.peek().t, true
}

// inject pushes an event created by another partition, preserving its
// foreign (stream, sseq) stamps and destination execution stream. Only the
// partitioned coordinator calls it, between windows, while the kernel is
// quiescent.
func (k *Kernel) inject(t Time, stream int32, sseq uint64, exec int32, fn func()) {
	if t < k.now {
		// A lookahead violation would have to regress the clock; refuse
		// loudly rather than corrupt the trajectory.
		panic("simnet: cross-partition event before local time (lookahead violation)")
	}
	k.enqueue(t, packKey(stream, sseq), event{fn: fn, exec: exec})
}

// runUntil is the shared event loop behind Run (inclusive limit) and
// RunBefore (exclusive horizon).
func (k *Kernel) runUntil(limit Time, strict bool) {
	if k.running {
		panic("simnet: Run called reentrantly")
	}
	if k.closed {
		panic("simnet: Run on a closed kernel")
	}
	k.running = true
	k.limit = limit
	k.strict = strict
	defer func() { k.running = false; k.strict = false }()
	for p := k.next(); p != nil; p = k.handoff {
		// The resumed process runs until it parks or returns, having set
		// the handoff to the next event's owner.
		k.stats.Switches++
		p.next()
	}
}

// Blocked reports the number of live processes that are parked with no
// pending wake event — blocked on a chan, resource or future. Useful to
// assert on unexpected deadlock in tests.
func (k *Kernel) Blocked() int {
	n := 0
	for _, p := range k.live {
		if p.slot < 0 {
			n++
		}
	}
	return n
}

// Alive reports the number of processes whose body has not yet returned.
func (k *Kernel) Alive() int { return len(k.live) }

// Close releases a finished simulation's goroutines. Every process whose
// body has not returned — receivers waiting for messages that will never
// come, idle pool runners, a coroutine inside StepUntil — is stopped one at
// a time and unwinds, running its deferred calls (which must not block on
// virtual-time primitives). A step process has no coroutine to unwind and
// is simply dropped. A closed kernel cannot run again: Run panics. Must not
// be called while Run executes.
func (k *Kernel) Close() {
	if k.running {
		panic("simnet: Close during Run")
	}
	k.closed = true
	for _, p := range k.live {
		if p.stop != nil {
			p.stop()
		}
		p.done = true
	}
	k.live = nil
	k.pq = eventQueue{}
}

func (k *Kernel) String() string {
	return fmt.Sprintf("simnet.Kernel{now=%v, events=%d, alive=%d}", k.now, k.pq.len(), len(k.live))
}
