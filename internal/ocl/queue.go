package ocl

import (
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// maxDeps bounds the number of incomplete dependencies one enqueued
// operation may carry. Eight covers every chain the runtime builds: the
// double-buffered pipeline needs at most two plus the in-order implicit
// ordering, and a graph-stage kernel carries one event per input edge
// (capped by the graph planner). The bound lets dependencies live in a
// fixed array inside the pooled op, keeping the enqueue path
// allocation-free.
const maxDeps = 8

// MaxDeps is the exported dependency bound, for callers that assemble
// dependency arrays of their own (the core graph planner validates against
// it).
const MaxDeps = maxDeps

// op is one operation sitting in (or recently retired from) an in-order
// queue. Ops are pooled per queue and recycled as soon as they complete; the
// generation counter disambiguates stale Event handles that still point at a
// recycled op. All reference-typed fields are reset on completion but their
// backing storage is retained, so a queue in steady state allocates nothing.
type op struct {
	gen   uint64 // bumped on every reuse; an Event is live iff gens match
	done  bool
	start simnet.Time     // set when the op reaches the engine
	dur   simnet.Duration // modeled service time, fixed at enqueue
	kind  trace.Kind
	bytes int64  // PCIe payload (0 for kernel launches)
	label string // trace label; callers pass "" when tracing is off

	deps    [maxDeps]Event
	ndeps   int
	waiters simnet.WaitList // processes waiting in Event.Wait or Event.Await
	hooks   []*queue        // queues whose head is gated on this op
	next    *op             // FIFO link while queued, free-list link after
}

// Event is a lightweight, copyable handle on an enqueued operation — the
// moral equivalent of a cl_event. The zero Event is complete. Events become
// complete in virtual time via the simnet callback heap; no process is
// parked for the duration of the operation they name.
type Event struct {
	op  *op
	gen uint64
}

// Done reports whether the operation has completed (or the handle is zero).
func (e Event) Done() bool {
	return e.op == nil || e.op.gen != e.gen || e.op.done
}

// Wait blocks p until the operation completes. Waiting on an already
// complete (or zero) Event returns immediately without yielding.
func (e Event) Wait(p *simnet.Proc) {
	for !e.Done() {
		e.op.waiters.Park(p)
	}
}

// Await is Wait for a step process, which returns instead of blocking: it
// reports true when the operation has completed (or the handle is zero),
// or registers p for the completion, arms its wake and reports false. The
// woken step calls Await again — exactly the events of Wait. Called on an
// incomplete Event from a coroutine outside StepUntil, it panics naming
// the process.
func (e Event) Await(p *simnet.Proc) bool {
	if e.Done() {
		return true
	}
	e.op.waiters.Arm(p)
	return false
}

// queue is one in-order engine queue (compute, H2D DMA, or D2H DMA). The
// head op runs as soon as its cross-queue dependencies are complete; at its
// completion callback the queue does the device accounting, wakes waiters,
// kicks dependent queues, and starts the next op. Single-DMA devices share
// one queue between both transfer directions, so head-of-line blocking
// between directions falls out of the model for free.
type queue struct {
	d    *Device
	lane string       // precomputed trace lane, e.g. "k20#0.kern"
	busy *simnet.Time // accumulator: &d.kernelBusy or &d.xferBusy

	head, tail *op
	running    bool // head is on the engine (completion callback pending)
	waiting    bool // head is hook-parked on an incomplete dependency
	free       *op  // recycled ops

	complete func() // pre-bound completion callback (one closure per queue)
}

func newQueue(d *Device, lane string, busy *simnet.Time) *queue {
	q := &queue{d: d, lane: lane, busy: busy}
	q.complete = q.onComplete
	return q
}

// enqueue appends an operation and returns its Event. Only incomplete deps
// are retained; same-queue ordering is implicit (in-order queue), so callers
// only pass cross-queue dependencies.
func (q *queue) enqueue(kind trace.Kind, dur simnet.Duration, bytes int64, label string, deps []Event) Event {
	o := q.free
	if o != nil {
		q.free = o.next
		o.next = nil
	} else {
		o = new(op)
	}
	o.gen++
	o.done = false
	o.kind = kind
	o.dur = dur
	o.bytes = bytes
	o.label = label
	o.ndeps = 0
	for _, e := range deps {
		if e.Done() {
			continue
		}
		if o.ndeps == maxDeps {
			panic("ocl: too many event dependencies")
		}
		o.deps[o.ndeps] = e
		o.ndeps++
	}
	if q.tail != nil {
		q.tail.next = o
	} else {
		q.head = o
	}
	q.tail = o
	ev := Event{op: o, gen: o.gen}
	q.tryStart()
	return ev
}

// tryStart puts the head op on the engine if the engine is idle and every
// dependency is complete. If a dependency is still outstanding the queue
// registers itself on the first incomplete one and is kicked again when that
// op completes (re-scanning then catches any later stragglers).
func (q *queue) tryStart() {
	if q.running || q.waiting || q.head == nil {
		return
	}
	o := q.head
	for i := 0; i < o.ndeps; i++ {
		e := o.deps[i]
		if e.Done() {
			continue
		}
		e.op.hooks = append(e.op.hooks, q)
		q.waiting = true
		return
	}
	q.running = true
	o.start = q.d.k.Now()
	q.d.k.CallAfter(o.dur, q.complete)
}

// onComplete retires the head op at its completion time: device accounting,
// trace emission (skipped entirely when the recorder is nil), waking any
// processes blocked on the op's Event, kicking queues gated on it, recycling
// the op, and starting the next one.
func (q *queue) onComplete() {
	o := q.head
	d := q.d
	now := d.k.Now()

	*q.busy += simnet.Time(o.dur)
	d.noteActive(o.start, now)
	if o.kind == trace.KindKernel {
		d.numLaunches++
	} else {
		d.bytesMoved += o.bytes
	}
	if d.rec != nil {
		if o.kind == trace.KindKernel {
			d.rec.CounterAdd(d.nodeID, "mcl.launches", now, 1)
		} else {
			d.rec.CounterAdd(d.nodeID, "mcl.bytes_moved", now, o.bytes)
		}
		d.rec.Add(trace.Span{
			Node:  d.nodeID,
			Queue: q.lane,
			Kind:  o.kind,
			Label: o.label,
			Start: o.start,
			End:   now,
		})
	}

	q.head = o.next
	if q.head == nil {
		q.tail = nil
	}
	o.next = nil
	q.running = false
	o.done = true

	o.waiters.WakeAll(d.k)
	for i, h := range o.hooks {
		o.hooks[i] = nil
		h.waiting = false
		h.tryStart()
	}
	o.hooks = o.hooks[:0]

	o.label = ""
	for i := 0; i < o.ndeps; i++ {
		o.deps[i] = Event{}
	}
	o.ndeps = 0
	o.next = q.free
	q.free = o

	q.tryStart()
}
