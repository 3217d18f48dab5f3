package simnet

import (
	"fmt"
	"sync"
	"time"
)

// Partitioned runs one simulation as P cooperating event loops — a
// conservative parallel discrete-event scheduler. Simulated nodes are
// assigned to partitions in contiguous blocks; each partition owns a Kernel
// with the procs, channels, resources and callback heap of its nodes, and
// advances independently inside synchronization windows derived from the
// model's minimum cross-partition latency (the lookahead).
//
// The protocol is a bounded-time-window (YAWNS-style) variant of
// null-message synchronization. Each round the coordinator:
//
//  1. drains every per-partition-pair mailbox, injecting cross-partition
//     events (with their creator's (stream, sseq) stamps) into the
//     destination heaps;
//  2. computes M_i, the earliest pending event time of partition i (its
//     LBTS contribution: partition i cannot send a message stamped earlier
//     than M_i);
//  3. grants each partition the horizon H_i = min over j != i of
//     (M_j + lookahead): any message j may still emit arrives no earlier
//     than M_j + lookahead, so every event of i with t < H_i is safe;
//  4. runs each partition with work (M_i < H_i) via Kernel.RunBefore(H_i),
//     concurrently, and barriers before the next round. The coordinator
//     runs the first active partition's window itself and hands only the
//     others to worker goroutines, so a round with a single active
//     partition, the common case when windows are short, costs no
//     cross-thread handoff at all.
//
// The partition holding the globally minimal M always satisfies
// M_i < min_j(M_j) + lookahead = H_i, so every round makes progress as long
// as the lookahead is positive (Run enforces this).
//
// Determinism: trajectories depend only on each kernel's heap order, which
// the (t, stream, sseq) key makes independent of wall-clock interleaving
// and of the partition layout itself — both stamp components are assigned
// by the creating node's serialized execution, not by the partitioning
// (see eventQueue). The 1-partition run is the reference every layout is
// checked against.
type Partitioned struct {
	ks    []*Kernel
	owner []int // simulated node -> partition (nil: everything on ks[0])

	lookahead Duration
	running   bool

	// mail[src][dst] carries events posted by partition src for partition
	// dst. Entries are appended under a per-pair mutex by the source
	// partition's goroutine and drained by the coordinator at the barrier,
	// so contention is one uncontended lock per cross-partition event.
	mail [][]mailbox

	stats  PDESStats
	pstats []PartitionStats
}

// mailbox is one directed partition pair's event queue.
type mailbox struct {
	mu  sync.Mutex
	buf []xevent
}

// xevent is a cross-partition event in flight: the destination timestamp,
// the creator's (stream, sseq) stamps, the destination node's stream the
// callback executes under, and the callback to inject.
type xevent struct {
	t      Time
	sseq   uint64
	stream int32
	exec   int32
	fn     func()
}

// PDESStats aggregates the partitioned scheduler's synchronization counters.
type PDESStats struct {
	Partitions int
	Lookahead  Duration
	Rounds     int64 // synchronization rounds (barriers)
	WallNs     int64 // wall-clock time spent inside Run
	Parts      []PartitionStats
}

// PartitionStats are one partition's counters.
type PartitionStats struct {
	Nodes      int   // simulated nodes bound to this partition
	Windows    int64 // rounds in which the partition had safe events to run
	NullRounds int64 // rounds in which it sat out (no event below its horizon)
	CrossSent  int64 // events posted to other partitions
	CrossRecv  int64 // events injected from other partitions
	RunWallNs  int64 // wall-clock time spent executing windows
	// BlockedWallNs is the wall-clock time the partition spent waiting on
	// other partitions (total parallel run time minus its own run time).
	BlockedWallNs int64
}

// NewPartitioned builds a partitioned scheduler for the given number of
// simulated nodes split into parts contiguous blocks (parts is clamped to
// [1, nodes]). Partition 0's kernel is seeded exactly like NewKernel(seed),
// so a source seeded from partition 0's Seed draws the same sequence in
// every layout.
func NewPartitioned(seed int64, nodes, parts int) *Partitioned {
	if nodes <= 0 {
		panic("simnet: partitioned scheduler needs at least one node")
	}
	if parts < 1 {
		parts = 1
	}
	if parts > nodes {
		parts = nodes
	}
	ps := &Partitioned{}
	for i := 0; i < parts; i++ {
		k := NewKernel(seed + int64(i)*1_000_003)
		k.part = int32(i)
		ps.ks = append(ps.ks, k)
	}
	ps.owner = make([]int, nodes)
	for n := 0; n < nodes; n++ {
		ps.owner[n] = n * parts / nodes
	}
	ps.initMail()
	return ps
}

// Single wraps an existing standalone kernel as a 1-partition scheduler, so
// layers written against Partitioned keep working for callers that build
// their own Kernel.
func Single(k *Kernel) *Partitioned {
	ps := &Partitioned{ks: []*Kernel{k}}
	ps.initMail()
	return ps
}

func (ps *Partitioned) initMail() {
	p := len(ps.ks)
	ps.mail = make([][]mailbox, p)
	for i := range ps.mail {
		ps.mail[i] = make([]mailbox, p)
	}
	ps.pstats = make([]PartitionStats, p)
	for n := range ps.owner {
		ps.pstats[ps.owner[n]].Nodes++
	}
	if ps.owner == nil {
		ps.pstats[0].Nodes = 1
	}
}

// Parts reports the number of partitions.
func (ps *Partitioned) Parts() int { return len(ps.ks) }

// Seed returns the base seed (partition 0's kernel seed), the root of every
// derived per-node random stream.
func (ps *Partitioned) Seed() int64 { return ps.ks[0].Seed() }

// Kernels returns the per-partition kernels (index = partition id).
func (ps *Partitioned) Kernels() []*Kernel { return ps.ks }

// KernelFor returns the kernel owning the given simulated node.
func (ps *Partitioned) KernelFor(node int) *Kernel {
	if ps.owner == nil {
		return ps.ks[0]
	}
	return ps.ks[ps.owner[node]]
}

// SetLookahead declares the minimum virtual-time distance of any
// cross-partition event: no Post may target a time earlier than the
// source's clock plus d. The network layer registers its minimum link
// latency here. Must be set (positive) before Run when Parts() > 1.
func (ps *Partitioned) SetLookahead(d Duration) {
	if d > 0 && (ps.lookahead == 0 || d < ps.lookahead) {
		ps.lookahead = d
	}
}

// Lookahead reports the registered lookahead.
func (ps *Partitioned) Lookahead() Duration { return ps.lookahead }

// Post schedules fn to run at time t on the kernel dst, executing under the
// event stream of simulated node dstNode (which dst must own): fn is the
// arrival half of a cross-node interaction, and everything it posts counts
// on the destination node's creation counter. The event itself is stamped
// with the source context's (stream, sseq), so its heap position at the
// destination is a pure function of the trajectory. Within a partition it
// is a CallAt with a stream switch; across partitions the event is buffered
// in the pair's mailbox for injection at the next barrier. t must respect
// the lookahead: it may not be earlier than the source clock plus
// Lookahead().
func (ps *Partitioned) Post(src, dst *Kernel, dstNode int, t Time, fn func()) {
	if src == dst {
		src.callAtExec(t, fn, int32(dstNode))
		return
	}
	if t < src.now.Add(ps.lookahead) {
		panic(fmt.Sprintf("simnet: cross-partition post at %v violates lookahead %v (now %v)",
			t, ps.lookahead, src.now))
	}
	s := src.curStream
	ps.pstats[src.part].CrossSent++
	mb := &ps.mail[src.part][dst.part]
	mb.mu.Lock()
	mb.buf = append(mb.buf, xevent{t: t, stream: s, sseq: src.stampOn(s), exec: int32(dstNode), fn: fn})
	mb.mu.Unlock()
}

// drain injects all buffered cross-partition events. Only the coordinator
// calls it, with every partition quiescent.
func (ps *Partitioned) drain() {
	for s := range ps.mail {
		for d := range ps.mail[s] {
			mb := &ps.mail[s][d]
			mb.mu.Lock()
			for _, xe := range mb.buf {
				ps.ks[d].inject(xe.t, xe.stream, xe.sseq, xe.exec, xe.fn)
				ps.pstats[d].CrossRecv++
			}
			mb.buf = mb.buf[:0]
			mb.mu.Unlock()
		}
	}
}

// Close releases the goroutines of every partition's unfinished processes
// once the simulation is over (see Kernel.Close).
func (ps *Partitioned) Close() {
	for _, k := range ps.ks {
		k.Close()
	}
}

// Now reports the simulation time: the maximum clock over partitions.
func (ps *Partitioned) Now() Time {
	var t Time
	for _, k := range ps.ks {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// Stats returns a snapshot of the synchronization counters. Must not be
// called while Run executes.
func (ps *Partitioned) Stats() PDESStats {
	st := ps.stats
	st.Partitions = len(ps.ks)
	st.Lookahead = ps.lookahead
	st.Parts = append([]PartitionStats(nil), ps.pstats...)
	for i := range st.Parts {
		st.Parts[i].Blocked(st.WallNs)
	}
	return st
}

// Blocked derives the blocked-wall time from the total run wall time.
func (p *PartitionStats) Blocked(totalWallNs int64) {
	if b := totalWallNs - p.RunWallNs; b > 0 {
		p.BlockedWallNs = b
	}
}

// AggregateKernelStats sums the per-partition scheduling counters. The
// trajectory-determined counters (Events, Callbacks, Spawns, Stale) are
// identical across partition layouts for a deterministic program; the
// host-side ones (Switches, SelfWakes and Steps, which say how each wake
// ran, and MaxQueue) are summed or maxed as appropriate and belong in
// host-side reporting, not in byte-compared metric dumps.
func (ps *Partitioned) AggregateKernelStats() Stats {
	var st Stats
	for _, k := range ps.ks {
		ks := k.Stats()
		st.Events += ks.Events
		st.SelfWakes += ks.SelfWakes
		st.Switches += ks.Switches
		st.Steps += ks.Steps
		st.Stale += ks.Stale
		st.Spawns += ks.Spawns
		st.Callbacks += ks.Callbacks
		if ks.MaxQueue > st.MaxQueue {
			st.MaxQueue = ks.MaxQueue
		}
	}
	return st
}

const timeInf = Time(1<<63 - 1)

// Run executes the partitioned simulation until every heap and mailbox
// drains, or until limit (inclusive, like Kernel.Run) is reached. It
// returns the final virtual time.
func (ps *Partitioned) Run(limit Time) Time {
	if ps.running {
		panic("simnet: Partitioned.Run called reentrantly")
	}
	ps.running = true
	defer func() { ps.running = false }()

	if len(ps.ks) == 1 {
		// Fast path: a single partition is exactly the sequential kernel.
		ps.drain()
		return ps.ks[0].Run(limit)
	}
	if ps.lookahead <= 0 {
		panic("simnet: partitioned run needs a positive lookahead (SetLookahead)")
	}

	wallStart := time.Now()
	defer func() { ps.stats.WallNs += time.Since(wallStart).Nanoseconds() }()

	P := len(ps.ks)
	m := make([]Time, P)
	h := make([]Time, P)

	var wg sync.WaitGroup
	start := make([]chan Time, P)
	for i := 0; i < P; i++ {
		i := i
		start[i] = make(chan Time, 1)
		go func() {
			for hor := range start[i] {
				ps.runWindow(i, hor)
				wg.Done()
			}
		}()
	}
	defer func() {
		for _, c := range start {
			close(c)
		}
	}()

	for {
		ps.drain()
		globalMin := timeInf
		for i, k := range ps.ks {
			if t, ok := k.NextEventTime(); ok {
				m[i] = t
				if t < globalMin {
					globalMin = t
				}
			} else {
				m[i] = timeInf
			}
		}
		if globalMin == timeInf {
			break // every heap and mailbox drained
		}
		if limit > 0 && globalMin > limit {
			for _, k := range ps.ks {
				if k.now < limit {
					k.now = limit
				}
			}
			break
		}
		// Horizon of partition i: any message an active peer j can still
		// emit this round arrives no earlier than M_j + lookahead. A
		// currently-idle peer can only act on messages generated this round
		// (arriving >= globalMin + lookahead), so anything it relays back
		// arrives >= globalMin + 2*lookahead — that transitive bound keeps a
		// lone active partition from racing ahead of its own echoes.
		feedback := globalMin.Add(2 * ps.lookahead)
		for i := range h {
			hi := feedback
			for j := range m {
				if j == i || m[j] == timeInf {
					continue
				}
				if b := m[j].Add(ps.lookahead); b < hi {
					hi = b
				}
			}
			if limit > 0 && hi > limit+1 {
				hi = limit + 1
			}
			h[i] = hi
		}
		ps.stats.Rounds++
		inline := -1 // the active partition the coordinator runs itself
		for i := 0; i < P; i++ {
			if m[i] >= h[i] {
				if m[i] != timeInf {
					ps.pstats[i].NullRounds++
				}
				continue
			}
			ps.pstats[i].Windows++
			if inline < 0 {
				inline = i
				continue
			}
			wg.Add(1)
			start[i] <- h[i]
		}
		if inline >= 0 {
			ps.runWindow(inline, h[inline])
		}
		wg.Wait()
	}
	return ps.Now()
}

// runWindow executes partition i's events below horizon, accounting the
// wall time to the partition.
func (ps *Partitioned) runWindow(i int, horizon Time) {
	t0 := time.Now()
	ps.ks[i].RunBefore(horizon)
	ps.pstats[i].RunWallNs += time.Since(t0).Nanoseconds()
}
