package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// ballNode is one simulated node of the partition workload below: a process
// that consumes "balls" from a queue fed by cross-node deliveries, does some
// deterministic virtual work per ball, and forwards each ball to the next
// node until its hop budget runs out. All state is touched only by the
// node's own contexts (its proc and the deliveries executing as its stream),
// mirroring how the real layers shard per-node state.
type ballNode struct {
	id    int
	k     *Kernel
	ps    *Partitioned
	peers []*ballNode

	queue []int
	wl    WaitList
	rng   *rand.Rand
	log   strings.Builder
}

const (
	ballHops      = 12
	ballsPerNode  = 4
	ballLookahead = time.Millisecond
)

func (n *ballNode) recv(hop int) {
	n.queue = append(n.queue, hop)
	n.wl.WakeAll(n.k)
}

func (n *ballNode) loop(p *Proc) {
	for {
		for len(n.queue) == 0 {
			n.wl.Park(p)
		}
		hop := n.queue[0]
		n.queue = n.queue[1:]
		fmt.Fprintf(&n.log, "%d@%v/%d\n", n.id, p.Now(), hop)
		if hop >= ballHops {
			continue
		}
		// Deterministic per-node work and destinations: equal durations
		// across balls produce plenty of equal-timestamp events, which is
		// exactly what stresses the (stream, sseq) tie-break.
		p.Hold(Duration(100+n.rng.Intn(3)*50) * time.Microsecond)
		dst := n.peers[n.rng.Intn(len(n.peers))]
		t := p.Now().Add(ballLookahead)
		n.ps.Post(n.k, dst.k, dst.id, t, func() { dst.recv(hop + 1) })
	}
}

// runBallWorkload executes the workload on the given layout and returns the
// concatenated per-node trajectory logs. The seed drives the kernels, every
// node's work durations and the balls' release times.
func runBallWorkload(seed int64, nodes, parts int) string {
	ps := NewPartitioned(seed, nodes, parts)
	ps.SetLookahead(ballLookahead)
	ns := make([]*ballNode, nodes)
	for i := range ns {
		ns[i] = &ballNode{
			id: i, k: ps.KernelFor(i), ps: ps,
			rng: rand.New(rand.NewSource(seed*1_000 + int64(100+i))),
		}
	}
	start := rand.New(rand.NewSource(seed))
	for _, n := range ns {
		n.peers = ns
		n := n
		n.k.SpawnOn(n.id, fmt.Sprintf("ball.%d", n.id), n.loop)
		for b := 0; b < ballsPerNode; b++ {
			// Few distinct release times, so equal-timestamp arrivals
			// from different partitions are common.
			n.k.CallAt(Time(start.Intn(3))*Time(50*time.Microsecond), func() { n.recv(0) })
		}
	}
	ps.Run(0)
	var out strings.Builder
	for _, n := range ns {
		out.WriteString(n.log.String())
	}
	return out.String()
}

// TestPartitionedTrajectoryLayoutIndependent is the kernel-level determinism
// contract of the partitioned scheduler, checked as a property over seeds
// and cluster shapes: for every seed, every node count (including ones the
// partition count does not divide) and every partition count up to the node
// count, the concurrent partitioned run reproduces the single-kernel
// trajectory byte for byte. Under -race it doubles as the concurrency test
// of the per-pair mailboxes (every partition posts into other partitions'
// mailboxes from its own goroutine each window) and of WaitList wakes driven
// by injected cross-partition deliveries.
func TestPartitionedTrajectoryLayoutIndependent(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, nodes := range []int{3, 5, 8, 13} {
			want := runBallWorkload(seed, nodes, 1)
			if want == "" {
				t.Fatal("empty trajectory")
			}
			for _, parts := range []int{2, 3, 4, 8} {
				if parts > nodes {
					continue
				}
				if got := runBallWorkload(seed, nodes, parts); got != want {
					t.Errorf("seed %d, %d nodes, %d partitions: trajectory diverged from the single-kernel run: %s",
						seed, nodes, parts, firstDiff(want, got))
				}
			}
		}
	}
}

// TestPartitionedRunLimit: Partitioned.Run(limit) is inclusive like
// Kernel.Run — events exactly at the limit fire, later ones stay queued, and
// a later Run continues the same trajectory.
func TestPartitionedRunLimit(t *testing.T) {
	ps := NewPartitioned(1, 4, 4)
	ps.SetLookahead(time.Millisecond)
	var fired []Time
	k0 := ps.KernelFor(0)
	for _, d := range []Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		d := d
		k0.CallAt(Time(d), func() { fired = append(fired, k0.Now()) })
	}
	if now := ps.Run(Time(2 * time.Millisecond)); now != Time(2*time.Millisecond) {
		t.Fatalf("Run returned %v, want 2ms", now)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want the 1ms and the exactly-at-limit 2ms callbacks", fired)
	}
	ps.Run(0)
	if len(fired) != 3 || fired[2] != Time(3*time.Millisecond) {
		t.Fatalf("fired %v after resume", fired)
	}
}

// TestPostLookaheadViolationPanics: a cross-partition post closer than the
// declared lookahead must panic loudly instead of corrupting the trajectory.
func TestPostLookaheadViolationPanics(t *testing.T) {
	ps := NewPartitioned(1, 2, 2)
	ps.SetLookahead(time.Millisecond)
	k0, k1 := ps.KernelFor(0), ps.KernelFor(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lookahead violation")
		}
	}()
	ps.Post(k0, k1, 1, k0.Now().Add(time.Microsecond), func() {})
}

// TestPartitionedStats: the synchronization counters account for windows,
// rounds and cross-partition traffic.
func TestPartitionedStats(t *testing.T) {
	ps := NewPartitioned(7, 4, 4)
	ps.SetLookahead(ballLookahead)
	ns := make([]*ballNode, 4)
	for i := range ns {
		ns[i] = &ballNode{id: i, k: ps.KernelFor(i), ps: ps, rng: rand.New(rand.NewSource(int64(100 + i)))}
	}
	for _, n := range ns {
		n.peers = ns
		n := n
		n.k.SpawnOn(n.id, fmt.Sprintf("ball.%d", n.id), n.loop)
		n.k.CallAt(0, func() { n.recv(0) })
	}
	ps.Run(0)
	st := ps.Stats()
	if st.Partitions != 4 || st.Lookahead != ballLookahead {
		t.Fatalf("stats header = %+v", st)
	}
	if st.Rounds <= 0 {
		t.Fatal("no synchronization rounds counted")
	}
	var sent, recv int64
	for _, p := range st.Parts {
		sent += p.CrossSent
		recv += p.CrossRecv
		if p.Nodes != 1 {
			t.Fatalf("partition stats = %+v, want 1 node each", p)
		}
	}
	if sent == 0 || sent != recv {
		t.Fatalf("cross-partition events sent %d, received %d; want equal and nonzero", sent, recv)
	}
}

// firstDiff describes the first line at which two trajectory logs differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d is %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
