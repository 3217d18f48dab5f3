package simnet

import "fmt"

// eventQueue is the kernel's pending-event set: a hand-rolled heapArity-ary
// min-heap of compact entries ordered by (time, creating stream, stream
// sequence), with each event's payload in a side slab. container/heap would
// force every push and pop through an interface{} conversion, allocating
// one box per scheduled event; on the kernel's hot loop that boxing
// dominates, so the sift operations are inlined here over concrete slices.
//
// A heap entry is 24 bytes: the time, the packed (stream, sseq) key (see
// packKey) and the slab id of the event's payload. A sift compares two
// integers and moves one entry; the payload (process, callback, epoch,
// execution stream) never moves while the event is queued. pos maps a slab
// id to its entry's heap index, so the decrease-key finds a process's entry
// without a pointer chase, and Proc.slot holds the slab id, which no sift
// changes. Freed ids are reused through a free list, so a steady-state
// queue allocates nothing.
//
// The root is vacated lazily. pop takes the minimum and leaves its slot
// empty without sifting; the next push fills the vacancy with one sift-down
// from the root (heapreplace), which stops at once when the new event is
// the next minimum. The event loop's usual pattern — pop an event, run its
// handler, which posts the next one — therefore costs one sift instead of
// two. A decrease-key fills the vacancy with the entry it advances (see
// advance). Anything else that needs the root in place (peek, a pop that
// follows a pop) first moves the last leaf into the vacancy and sifts it
// down, the work an eager pop would have done.
//
// Four children per node halve the tree's depth against a binary heap: a
// sift-down moves half as many levels, each a scan of up to four adjacent
// siblings (96 bytes), and a sift-up climbs half as far. Pop order is fixed
// by the unique (t, stream, sseq) key, so neither the arity nor the lazy
// root can change a trajectory.
//
// The tie-break chain is independent of the partition layout: equal-time
// events fire ordered by the simulated node (stream) whose execution
// created them, then by that stream's monotonically increasing sequence
// number. A stream's contexts run serially on the one kernel that owns its
// node in every layout, so both stamp components are properties of the
// trajectory, not of the partitioning — which is the whole determinism
// argument of the partitioned scheduler. On a standalone kernel with only
// the default stream the order degenerates to the legacy (t, seq) creation
// order.
//
// A process has at most one entry in the queue: its pending wake, whose
// slab id it keeps in Proc.slot (-1 when there is none). A later wake for
// the same process is folded into that entry (see Kernel.postOn), so
// superseded timeouts never occupy the queue; advance is the decrease-key
// that moves a rewritten entry forward.
type eventQueue struct {
	h      []entry // the heap; h[0] is empty while vacant is set
	vacant bool    // the root was popped and not yet refilled
	pos    []int32 // heap index of each slab id's entry
	slab   []event // payloads, indexed by slab id
	free   []int32 // slab ids not in use
}

// entry is one heap slot: the event's order key and the slab id of its
// payload.
type entry struct {
	t   Time
	key uint64 // packKey(stream, sseq)
	id  int32
}

// heapArity is the number of children per heap node. The parent of index i
// is (i-1)/heapArity, and its children are heapArity*i+1 onward.
const heapArity = 4

// A key packs the creating stream into its top streamBits bits and the
// stream's sequence number into the rest, so (t, key) orders exactly as
// (t, stream, sseq).
const (
	streamBits = 20
	sseqBits   = 64 - streamBits
	maxStreams = 1 << streamBits
)

// packKey packs a (stream, sseq) stamp into an order key. It panics when
// either component does not fit.
func packKey(stream int32, sseq uint64) uint64 {
	if uint32(stream) >= maxStreams || sseq >= 1<<sseqBits {
		keyOverflow(stream, sseq)
	}
	return uint64(stream)<<sseqBits | sseq
}

// keyOverflow panics for packKey. It is kept out of line so that packKey,
// called on every post, stays small enough to inline.
//
//go:noinline
func keyOverflow(stream int32, sseq uint64) {
	panic(fmt.Sprintf("simnet: event stamp (stream %d, seq %d) outside stream [0, %d), seq [0, 2^%d)",
		stream, sseq, maxStreams, sseqBits))
}

// before reports whether a orders ahead of b.
func (a *entry) before(b *entry) bool {
	return a.t < b.t || a.t == b.t && a.key < b.key
}

// len reports the number of queued events.
func (q *eventQueue) len() int {
	if q.vacant {
		return len(q.h) - 1
	}
	return len(q.h)
}

// push queues event e at (t, key). A process event's slab id goes into its
// Proc.slot.
func (q *eventQueue) push(t Time, key uint64, e event) {
	var id int32
	if n := len(q.free); n > 0 {
		id = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[id] = e
	} else {
		id = int32(len(q.slab))
		q.slab = append(q.slab, e)
		q.pos = append(q.pos, 0)
	}
	if e.p != nil {
		e.p.slot = id
	}
	x := entry{t: t, key: key, id: id}
	if q.vacant {
		q.vacant = false
		q.down(0, x)
		return
	}
	q.h = append(q.h, x)
	q.up(len(q.h)-1, x)
}

// peek returns the minimum entry. The queue must not be empty.
func (q *eventQueue) peek() entry {
	q.fill()
	return q.h[0]
}

// pop removes the minimum event, returning its time, key and payload, and
// clears its process's slot. It leaves the root vacant for the next push.
// The queue must not be empty.
func (q *eventQueue) pop() (Time, uint64, event) {
	q.fill()
	top := q.h[0]
	e := q.slab[top.id]
	q.slab[top.id] = event{} // drop the pointers for the collector
	q.free = append(q.free, top.id)
	if e.p != nil {
		e.p.slot = -1
	}
	if len(q.h) == 1 {
		q.h = q.h[:0]
	} else {
		q.vacant = true
	}
	return top.t, top.key, e
}

// advance moves the entry of slab id to (t, key) if that orders ahead of
// where it is (a decrease-key); otherwise it leaves the entry alone.
//
// With the root vacant it takes the entry out of its slot, moves the last
// leaf into the hole, and places the entry in the vacancy with one
// sift-down, which stops at once when the advanced event is the next one;
// the root is never refilled from the last leaf first. The leaf's sift-up
// from the hole cannot reach the vacancy: h[0] still holds the popped
// entry, which orders ahead of every queued one.
func (q *eventQueue) advance(id int32, t Time, key uint64) {
	x := entry{t: t, key: key, id: id}
	i := int(q.pos[id])
	if !x.before(&q.h[i]) {
		return
	}
	if !q.vacant {
		q.up(i, x)
		return
	}
	q.vacant = false
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	if i < n {
		if last.before(&q.h[(i-1)/heapArity]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	q.down(0, x)
}

// fill moves the last leaf into a vacant root and sifts it down.
func (q *eventQueue) fill() {
	if !q.vacant {
		return
	}
	q.vacant = false
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	q.down(0, last)
}

// up stores x at the hole i and sifts it toward the root. It restores the
// invariant after a push or a decrease-key.
func (q *eventQueue) up(i int, x entry) {
	h, pos := q.h, q.pos
	for i > 0 {
		parent := (i - 1) / heapArity
		if !x.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		pos[h[i].id] = int32(i)
		i = parent
	}
	h[i] = x
	pos[x.id] = int32(i)
}

// down stores x at the hole i and sifts it toward the leaves.
func (q *eventQueue) down(i int, x entry) {
	h, pos := q.h, q.pos
	n := len(h)
	for {
		first := heapArity*i + 1
		var min int
		if first+heapArity <= n {
			// A full family: scan the four siblings without per-child bounds
			// checks.
			c := h[first : first+heapArity : first+heapArity]
			m := 0
			if c[1].before(&c[m]) {
				m = 1
			}
			if c[2].before(&c[m]) {
				m = 2
			}
			if c[3].before(&c[m]) {
				m = 3
			}
			min = first + m
		} else {
			if first >= n {
				break
			}
			min = first
			for c := first + 1; c < n; c++ {
				if h[c].before(&h[min]) {
					min = c
				}
			}
		}
		if !h[min].before(&x) {
			break
		}
		h[i] = h[min]
		pos[h[i].id] = int32(i)
		i = min
	}
	h[i] = x
	pos[x.id] = int32(i)
}
