package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// stamp is an event's order key as the previous heap stored it, unpacked.
type stamp struct {
	t      Time
	stream int32
	sseq   uint64
}

func (s stamp) key() uint64 { return packKey(s.stream, s.sseq) }

// boxedHeap is the previous container/heap implementation, kept only as the
// test oracle for the hand-rolled queue's ordering semantics.
type boxedHeap []stamp

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].stream != h[j].stream {
		return h[i].stream < h[j].stream
	}
	return h[i].sseq < h[j].sseq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(stamp)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// checkQueue verifies the queue's internal invariants: heap order below a
// vacant root, pos naming every entry's index, the slab and free list
// partitioning the ids, Proc.slot naming the slab id of the process's
// entry, and a vacant root still holding the popped entry, which orders
// ahead of every queued one (advance relies on it to stop a sift-up below
// the vacancy).
func checkQueue(t *testing.T, q *eventQueue, where string) {
	t.Helper()
	inUse := make([]bool, len(q.slab))
	first := 0
	if q.vacant {
		first = 1
		if len(q.h) < 2 {
			t.Fatalf("%s: vacant root in a heap of %d slots", where, len(q.h))
		}
	}
	for i := first; i < len(q.h); i++ {
		x := q.h[i]
		if int(q.pos[x.id]) != i {
			t.Fatalf("%s: entry %d has id %d, whose pos is %d", where, i, x.id, q.pos[x.id])
		}
		if inUse[x.id] {
			t.Fatalf("%s: id %d queued twice", where, x.id)
		}
		inUse[x.id] = true
		if p := q.slab[x.id].p; p != nil && p.slot != x.id {
			t.Fatalf("%s: entry %d belongs to a process whose slot is %d, not %d", where, i, p.slot, x.id)
		}
		if parent := (i - 1) / heapArity; i > 0 && !(q.vacant && parent == 0) && x.before(&q.h[parent]) {
			t.Fatalf("%s: heap order violated at %d", where, i)
		}
	}
	for _, id := range q.free {
		if inUse[id] {
			t.Fatalf("%s: id %d is both free and queued", where, id)
		}
		inUse[id] = true
	}
	for id, used := range inUse {
		if !used {
			t.Fatalf("%s: id %d is neither free nor queued", where, id)
		}
	}
	if q.vacant {
		for i := 1; i < len(q.h); i++ {
			if q.h[i].before(&q.h[0]) {
				t.Fatalf("%s: entry %d orders ahead of the popped entry in the vacancy", where, i)
			}
		}
	}
}

// TestEventHeapMatchesContainerHeap drives both implementations with the
// same interleaved pushes and pops (heavy on equal timestamps and shared
// streams, so the (stream, sseq) tie-break chain is load-bearing) and
// requires identical pop order.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ours eventQueue
	var ref boxedHeap
	seq := uint64(0)
	popBoth := func(where string) {
		gotT, gotKey, _ := ours.pop()
		want := heap.Pop(&ref).(stamp)
		if gotT != want.t || gotKey != want.key() {
			t.Fatalf("%s: pop = {t:%v key:%#x}, container/heap = {t:%v stream:%d seq:%d}",
				where, gotT, gotKey, want.t, want.stream, want.sseq)
		}
	}
	for round := 0; round < 10000; round++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			seq++
			s := stamp{t: Time(rng.Intn(50)), stream: int32(rng.Intn(4)), sseq: seq}
			ours.push(s.t, s.key(), event{})
			heap.Push(&ref, s)
			continue
		}
		popBoth(fmt.Sprintf("round %d", round))
	}
	for len(ref) > 0 {
		popBoth("drain")
	}
	if ours.len() != 0 {
		t.Fatalf("queue not drained: %d events left", ours.len())
	}
}

// TestEventHeapSlots checks the bookkeeping behind the one-entry-per-process
// rule: across random pushes, decrease-keys (the path Kernel.postOn takes
// when a wake supersedes a pending one) and pops, every process entry's
// Proc.slot names its slab id, a popped process reads -1, the queue's
// invariants hold, and each pop returns the minimum entry.
func TestEventHeapSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	procs := make([]*Proc, 16)
	for i := range procs {
		procs[i] = &Proc{slot: -1}
	}
	var q eventQueue
	var seq uint64
	for round := 0; round < 20000; round++ {
		seq++
		s := stamp{t: Time(rng.Intn(64)), stream: int32(rng.Intn(3)), sseq: seq}
		switch op := rng.Intn(4); {
		case op == 0 && q.len() > 0:
			want := q.h[0]
			if q.vacant {
				want = q.h[len(q.h)-1]
				for i := 1; i < len(q.h); i++ {
					if q.h[i].before(&want) {
						want = q.h[i]
					}
				}
			}
			gotT, gotKey, e := q.pop()
			if gotT != want.t || gotKey != want.key {
				t.Fatalf("round %d: pop = {t:%v key:%#x}, minimum is %+v", round, gotT, gotKey, want)
			}
			if e.p != nil && e.p.slot != -1 {
				t.Fatalf("round %d: popped process keeps slot %d", round, e.p.slot)
			}
		case op == 1:
			q.push(s.t, s.key(), event{}) // a callback: no process, no slot
		default:
			p := procs[rng.Intn(len(procs))]
			if p.slot < 0 {
				q.push(s.t, s.key(), event{p: p})
			} else {
				q.advance(p.slot, s.t, s.key())
			}
		}
		checkQueue(t, &q, fmt.Sprintf("round %d", round))
	}
}

// refQueue is a linear-scan model of the queue with decrease-key: the
// oracle for the vacant-root interleavings.
type refQueue []refEntry

type refEntry struct {
	t   Time
	key uint64
	p   *Proc
}

func (r *refQueue) min() int {
	m := 0
	for i, x := range *r {
		if x.t < (*r)[m].t || x.t == (*r)[m].t && x.key < (*r)[m].key {
			m = i
		}
	}
	return m
}

// TestEventQueueVacantRoot drives every operation from the state a pop
// leaves behind — a vacant root — against the linear-scan oracle: a push
// that orders ahead of the root's children (heapreplace ends at once), one
// that orders behind them (it sifts down), a peek (as NextEventTime and the
// limit check in next do), a second pop, pops down to an empty queue, and
// decrease-keys: of a random entry, of the last leaf (whose slot the hole
// fill then drops), of an entry at depth 2 or more (the last leaf fills
// its hole and may sift either way), one whose new key does not order
// ahead (nothing may move and the root stays vacant), and two in one
// vacancy (the second finds the root filled by the first). Each scenario
// pushes 1–40 random events, each for its own process, pops one, applies
// its operation and then drains both queues in lockstep.
func TestEventQueueVacantRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []string{"push-first", "push-last", "push-random", "advance", "advance-last", "advance-deep",
		"advance-behind", "advance-twice", "peek", "pop", "empty"}
	for round := 0; round < 3000; round++ {
		op := ops[round%len(ops)]
		where := fmt.Sprintf("round %d (%s)", round, op)
		var q eventQueue
		var ref refQueue
		procs := make([]*Proc, 40)
		for i := range procs {
			procs[i] = &Proc{slot: -1}
		}
		seq := uint64(0)
		push := func(tm Time, p *Proc) {
			seq++
			key := packKey(int32(rng.Intn(3)), seq)
			q.push(tm, key, event{p: p})
			ref = append(ref, refEntry{tm, key, p})
		}
		pop := func(step string) {
			if q.len() != len(ref) {
				t.Fatalf("%s, %s: len = %d, oracle holds %d", where, step, q.len(), len(ref))
			}
			m := ref.min()
			want := ref[m]
			ref = append(ref[:m], ref[m+1:]...)
			gotT, gotKey, e := q.pop()
			if gotT != want.t || gotKey != want.key || e.p != want.p {
				t.Fatalf("%s, %s: pop = {t:%v key:%#x}, oracle = {t:%v key:%#x}", where, step, gotT, gotKey, want.t, want.key)
			}
			if e.p != nil && e.p.slot != -1 {
				t.Fatalf("%s, %s: popped process keeps slot %d", where, step, e.p.slot)
			}
			checkQueue(t, &q, where+", "+step)
		}
		// advance moves the entry at heap index i to (tm, key) in both
		// queues; the oracle takes it only if it orders ahead.
		advance := func(i int, tm Time, key uint64) {
			x := q.h[i]
			p := q.slab[x.id].p
			q.advance(x.id, tm, key)
			for j := range ref {
				if r := &ref[j]; r.p == p && (tm < r.t || tm == r.t && key < r.key) {
					r.t, r.key = tm, key
				}
			}
		}
		// earlier advances the entry at heap index i to a random time ahead
		// of its own.
		earlier := func(i int) {
			seq++
			advance(i, Time(rng.Int63n(int64(q.h[i].t))), packKey(0, seq))
		}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			push(Time(10+rng.Intn(100)), procs[i])
		}
		pop("first pop")
		switch op {
		case "push-first":
			push(0, nil)
		case "push-last":
			push(1000, nil)
		case "push-random":
			push(Time(rng.Intn(120)), nil)
		case "advance":
			if q.vacant {
				seq++
				advance(1+rng.Intn(len(q.h)-1), Time(rng.Intn(60)), packKey(0, seq))
			}
		case "advance-last":
			if q.vacant {
				earlier(len(q.h) - 1)
			}
		case "advance-deep":
			// Indices 5 onward lie at depth 2 or more; skip the last leaf.
			if q.vacant && len(q.h) > 6 {
				earlier(5 + rng.Intn(len(q.h)-6))
			}
		case "advance-behind":
			if q.vacant {
				i := 1 + rng.Intn(len(q.h)-1)
				seq++
				// Stream 3 orders after every pushed key at the same time.
				before := slices.Clone(q.h)
				advance(i, q.h[i].t+Time(rng.Intn(3)), packKey(3, seq))
				if !q.vacant || !slices.Equal(q.h, before) {
					t.Fatalf("%s: an advance that does not order ahead moved the heap (vacant %v)", where, q.vacant)
				}
			}
		case "advance-twice":
			if q.vacant && len(q.h) > 2 {
				i := 1 + rng.Intn(len(q.h)-1)
				// The entry after i (wrapping to 1) is advanced second.
				other := q.slab[q.h[1+i%(len(q.h)-1)].id].p
				earlier(i)
				checkQueue(t, &q, where+", first advance")
				earlier(int(q.pos[other.slot]))
			}
		case "peek":
			if len(ref) > 0 {
				want := ref[ref.min()]
				if got := q.peek(); got.t != want.t || got.key != want.key {
					t.Fatalf("%s: peek = %+v, oracle = {t:%v key:%#x}", where, got, want.t, want.key)
				}
			}
		case "pop":
			if len(ref) > 0 {
				pop("second pop")
			}
		}
		checkQueue(t, &q, where)
		for step := 0; len(ref) > 0; step++ {
			pop(fmt.Sprintf("drain %d", step))
		}
		if q.len() != 0 || len(q.h) != 0 || q.vacant {
			t.Fatalf("%s: drained queue holds %d slots (vacant %v)", where, len(q.h), q.vacant)
		}
		if op == "empty" {
			// A drained queue starts over cleanly, reusing its slab ids.
			push(5, procs[0])
			pop("refill")
		}
	}
}

// TestPackKey checks that a key orders exactly as (stream, sseq) up to the
// largest stamps it can hold, and that anything beyond panics.
func TestPackKey(t *testing.T) {
	const maxSeq = 1<<sseqBits - 1
	ordered := [][2]uint64{{0, 0}, {0, 1}, {0, maxSeq}, {1, 0}, {1, maxSeq}, {maxStreams - 1, 0}, {maxStreams - 1, maxSeq}}
	for i := 1; i < len(ordered); i++ {
		a, b := ordered[i-1], ordered[i]
		if packKey(int32(a[0]), a[1]) >= packKey(int32(b[0]), b[1]) {
			t.Fatalf("packKey%v does not order ahead of packKey%v", a, b)
		}
	}
	for _, c := range []struct {
		stream int32
		sseq   uint64
	}{{maxStreams, 0}, {-1, 0}, {0, maxSeq + 1}, {1 << 30, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("packKey(%d, %d) did not panic", c.stream, c.sseq)
				}
			}()
			packKey(c.stream, c.sseq)
		}()
	}
}

// BenchmarkEventHeap measures the queue at the steady depths the workloads
// run at (means of 10–52 events, high-water marks up to 271):
//
//   - alternate: pop the minimum, then push an event a random delay later —
//     the event loop's usual pattern, in which the push fills the root the
//     pop vacated.
//   - pairs: two pushes, then two pops, so one push of each pair appends
//     and one pop of each pair refills its own vacancy.
//   - fold: a timed receive's pattern (a thief awaiting a steal reply,
//     the master's comm loop), with one process per queued event.
//     Pop the wake due now; fold another process's far-off timeout to now
//     (a decrease-key into the vacant root); push the popped process's
//     next far-off timeout.
//   - containerheap: alternate on the boxed container/heap oracle, which
//     allocates on every push and pop.
//
// The queue cases are pinned at 0 allocs/op by `make bench-allocs`.
func BenchmarkEventHeap(b *testing.B) {
	for _, depth := range []int{16, 64, 256} {
		fill := func(push func(Time, uint64)) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < depth; i++ {
				push(Time(rng.Intn(4*depth)), packKey(0, uint64(i)))
			}
		}
		name := fmt.Sprintf("depth=%d", depth)
		b.Run("alternate/"+name, func(b *testing.B) {
			var q eventQueue
			fill(func(t Time, key uint64) { q.push(t, key, event{}) })
			q.push(0, packKey(1, 0), event{}) // grow the free list before timing
			q.pop()
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, _, e := q.pop()
				q.push(t+Time(rng.Intn(4*depth)), packKey(0, uint64(depth+i)), e)
			}
		})
		b.Run("pairs/"+name, func(b *testing.B) {
			var q eventQueue
			fill(func(t Time, key uint64) { q.push(t, key, event{}) })
			// Grow the slices to the transient depth+2 before timing.
			q.push(0, packKey(1, 0), event{})
			q.push(0, packKey(1, 1), event{})
			q.pop()
			q.pop()
			rng := rand.New(rand.NewSource(2))
			now := Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 {
				q.push(now+Time(rng.Intn(4*depth)), packKey(0, uint64(depth+i)), event{})
				q.push(now+Time(rng.Intn(4*depth)), packKey(0, uint64(depth+i+1)), event{})
				now, _, _ = q.pop()
				now, _, _ = q.pop()
			}
		})
		b.Run("fold/"+name, func(b *testing.B) {
			const far = 1 << 20
			var q eventQueue
			procs := make([]*Proc, depth)
			rng := rand.New(rand.NewSource(2))
			seq := uint64(0)
			for i := range procs {
				procs[i] = &Proc{slot: -1}
				seq++
				q.push(far+Time(rng.Intn(far)), packKey(0, seq), event{p: procs[i]})
			}
			seq++
			q.advance(procs[0].slot, 0, packKey(0, seq))
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now, _, e := q.pop()
				if next++; next == depth {
					next = 0
				}
				if procs[next] == e.p {
					next = (next + 1) % depth
				}
				seq++
				q.advance(procs[next].slot, now, packKey(0, seq))
				seq++
				q.push(now+far+Time(rng.Intn(far)), packKey(0, seq), e)
			}
		})
		b.Run("containerheap/"+name, func(b *testing.B) {
			var h boxedHeap
			fill(func(t Time, key uint64) { heap.Push(&h, stamp{t: t, sseq: key}) })
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := heap.Pop(&h).(stamp)
				e.t += Time(rng.Intn(4 * depth))
				e.sseq = uint64(depth + i)
				heap.Push(&h, e)
			}
		})
	}
}
