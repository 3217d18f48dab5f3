package simnet

import (
	"container/heap"
	"math/rand"
	"testing"
)

// boxedHeap is the previous container/heap implementation, kept only as the
// test oracle for the hand-rolled heap's ordering semantics.
type boxedHeap []event

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
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEventHeapMatchesContainerHeap drives both implementations with the
// same interleaved pushes and pops (heavy on equal timestamps and shared
// streams, so the (stream, sseq) tie-break chain is load-bearing) and
// requires identical pop order.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ours eventHeap
	var ref boxedHeap
	seq := uint64(0)
	for round := 0; round < 10000; round++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			seq++
			e := event{t: Time(rng.Intn(50)), stream: int32(rng.Intn(4)), sseq: seq}
			ours.push(e)
			heap.Push(&ref, e)
			continue
		}
		got := ours.pop()
		want := heap.Pop(&ref).(event)
		if got.t != want.t || got.stream != want.stream || got.sseq != want.sseq {
			t.Fatalf("round %d: pop = {t:%v stream:%d seq:%d}, container/heap = {t:%v stream:%d seq:%d}",
				round, got.t, got.stream, got.sseq, want.t, want.stream, want.sseq)
		}
	}
	for len(ref) > 0 {
		got := ours.pop()
		want := heap.Pop(&ref).(event)
		if got.t != want.t || got.stream != want.stream || got.sseq != want.sseq {
			t.Fatalf("drain: pop = {t:%v stream:%d seq:%d}, container/heap = {t:%v stream:%d seq:%d}",
				got.t, got.stream, got.sseq, want.t, want.stream, want.sseq)
		}
	}
	if len(ours) != 0 {
		t.Fatalf("heap not drained: %d events left", len(ours))
	}
}

// BenchmarkEventHeap measures one push+pop cycle at a steady queue depth.
// The hand-rolled heap runs at zero allocations per operation; the old
// container/heap path boxed every event through interface{} on both push
// and pop.
func BenchmarkEventHeap(b *testing.B) {
	const depth = 1024
	fill := func(push func(event)) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < depth; i++ {
			push(event{t: Time(rng.Intn(1 << 20)), sseq: uint64(i)})
		}
	}

	b.Run("handrolled", func(b *testing.B) {
		var h eventHeap
		fill(h.push)
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := h.pop()
			e.t = Time(rng.Intn(1 << 20))
			e.sseq = uint64(depth + i)
			h.push(e)
		}
	})

	b.Run("containerheap", func(b *testing.B) {
		var h boxedHeap
		fill(func(e event) { heap.Push(&h, e) })
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := heap.Pop(&h).(event)
			e.t = Time(rng.Intn(1 << 20))
			e.sseq = uint64(depth + i)
			heap.Push(&h, e)
		}
	})
}

// TestEventHeapSlots checks the bookkeeping behind the one-entry-per-process
// rule: across random pushes, decrease-keys (the path Kernel.postOn takes
// when a wake supersedes a pending one) and pops, every process entry's
// Proc.slot names its index, a popped process reads -1, the heap invariant
// holds, and each pop returns the minimum entry.
func TestEventHeapSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	procs := make([]*Proc, 16)
	for i := range procs {
		procs[i] = &Proc{slot: -1}
	}
	var h eventHeap
	var seq uint64
	for round := 0; round < 20000; round++ {
		seq++
		e := event{t: Time(rng.Intn(64)), stream: int32(rng.Intn(3)), sseq: seq}
		switch op := rng.Intn(4); {
		case op == 0 && len(h) > 0:
			min := 0
			for i := range h {
				if h[i].before(&h[min]) {
					min = i
				}
			}
			want := h[min]
			got := h.pop()
			if got.t != want.t || got.stream != want.stream || got.sseq != want.sseq {
				t.Fatalf("round %d: pop = %+v, minimum is %+v", round, got, want)
			}
			if got.p != nil && got.p.slot != -1 {
				t.Fatalf("round %d: popped process keeps slot %d", round, got.p.slot)
			}
		case op == 1:
			h.push(e) // a callback: no process, no slot
		default:
			p := procs[rng.Intn(len(procs))]
			e.p = p
			if p.slot < 0 {
				h.push(e)
			} else if i := int(p.slot); e.before(&h[i]) {
				h[i] = e
				h.up(i)
			}
		}
		for i := range h {
			if p := h[i].p; p != nil && int(p.slot) != i {
				t.Fatalf("round %d: entry %d belongs to a process whose slot is %d", round, i, p.slot)
			}
			if i > 0 && h[i].before(&h[(i-1)/heapArity]) {
				t.Fatalf("round %d: heap order violated at %d", round, i)
			}
		}
	}
}
