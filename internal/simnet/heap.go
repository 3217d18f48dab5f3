package simnet

// eventHeap is a hand-rolled heapArity-ary min-heap over events, ordered
// by (time, creating stream, stream sequence). container/heap would force
// every push and pop through an interface{} conversion, allocating one box
// per scheduled event; on the kernel's hot loop that boxing dominates, so
// the sift operations are inlined here over the concrete slice.
//
// Four children per node halve the tree's depth against a binary heap: a
// pop moves the 48-byte hole down half as many levels, each a scan of up
// to four adjacent siblings (one or two cache lines), and a push sifts up
// half as far. Pop order is fixed by the unique (t, stream, sseq) key, so
// the arity can never change a trajectory.
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
// A process has at most one entry in the heap: its pending wake, whose
// index the heap keeps in Proc.slot (-1 when there is none). A later wake
// for the same process is folded into that entry (see Kernel.postOn), so
// superseded timeouts never occupy the heap; up is the decrease-key that
// moves a rewritten entry forward.
type eventHeap []event

// heapArity is the number of children per heap node. The parent of index i
// is (i-1)/heapArity, and its children are heapArity*i+1 onward.
const heapArity = 4

// before reports whether a orders ahead of b.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.stream != b.stream {
		return a.stream < b.stream
	}
	return a.sseq < b.sseq
}

// place stores e at index i and records the index in its process's slot.
func (h eventHeap) place(i int, e event) {
	h[i] = e
	if e.p != nil {
		e.p.slot = int32(i)
	}
}

// push adds an event and restores the heap invariant by sifting up.
func (h *eventHeap) push(e event) {
	i := len(*h)
	*h = append(*h, e)
	if e.p != nil {
		e.p.slot = int32(i)
	}
	h.up(i)
}

// up moves the entry at i toward the root until its parent orders ahead of
// it. It restores the invariant after a push or a decrease-key.
func (h eventHeap) up(i int) {
	if i == 0 || !h[i].before(&h[(i-1)/heapArity]) {
		return
	}
	e := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(&h[parent]) {
			break
		}
		h.place(i, h[parent])
		i = parent
	}
	h.place(i, e)
}

// pop removes and returns the minimum event, clearing its process's slot.
// It must not be called on an empty heap.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	if top.p != nil {
		top.p.slot = -1
	}
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the Proc pointer for the collector
	*h = q[:n]
	if n > 0 {
		h.down(0, last)
	}
	return top
}

// down stores e at the hole i and sifts it toward the leaves.
func (h eventHeap) down(i int, e event) {
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+heapArity && c < n; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&e) {
			break
		}
		h.place(i, h[min])
		i = min
	}
	h.place(i, e)
}
