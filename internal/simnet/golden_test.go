package simnet

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/trajectory_golden.txt from the current scheduler")

const trajectoryGolden = "testdata/trajectory_golden.txt"

// goldenSeeds are the workload seeds pinned by the trajectory golden file.
const goldenSeeds = 10

// partitionedRandomWorkload is randomWorkload spread over simulated nodes:
// every node owns its channels and a resource, its processes are bound to
// the node's event stream, and besides holding, timed receives and resource
// contention they send to other nodes' channels through Partitioned.Post,
// so a multi-partition layout carries cross-partition traffic. Each node
// logs into its own trace (partitions run concurrently), and the traces are
// concatenated in node order.
func partitionedRandomWorkload(ps *Partitioned, nodes int, seed int64, lookahead Duration) []*[]string {
	const procsPerNode = 3
	const steps = 40
	type node struct {
		k     *Kernel
		chans []*Chan[int]
		res   *Resource
	}
	ns := make([]*node, nodes)
	for i := range ns {
		k := ps.KernelFor(i)
		ns[i] = &node{k: k, chans: []*Chan[int]{NewChan[int](k), NewChan[int](k)}, res: NewResource(k, fmt.Sprintf("r%d", i), 1)}
	}
	traces := make([]*[]string, nodes)
	for i, n := range ns {
		i, n := i, n
		trace := new([]string)
		traces[i] = trace
		for w := 0; w < procsPerNode; w++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(i*procsPerNode+w)))
			n.k.SpawnOn(i, fmt.Sprintf("n%d.w%d", i, w), func(p *Proc) {
				for s := 0; s < steps; s++ {
					switch rng.Intn(5) {
					case 0:
						p.Hold(time.Duration(rng.Intn(50)) * time.Microsecond)
					case 1:
						n.chans[rng.Intn(len(n.chans))].Send(rng.Intn(100))
					case 2:
						recvTimeout(p, n.chans[rng.Intn(len(n.chans))], time.Duration(1+rng.Intn(30))*time.Microsecond)
					case 3:
						use(p, n.res, 1, time.Duration(rng.Intn(20))*time.Microsecond)
					case 4:
						d := rng.Intn(nodes)
						ch := ns[d].chans[rng.Intn(len(ns[d].chans))]
						v := rng.Intn(100)
						at := p.Now().Add(lookahead + time.Duration(rng.Intn(10))*time.Microsecond)
						ps.Post(n.k, ns[d].k, d, at, func() { ch.Send(v) })
					}
					*trace = append(*trace, fmt.Sprintf("%s@%v#%d", p.name, p.Now(), s))
				}
			})
		}
	}
	return traces
}

// goldenStats renders the trajectory-determined scheduling counters.
func goldenStats(st Stats) string {
	return fmt.Sprintf("events=%d callbacks=%d stale=%d spawns=%d", st.Events, st.Callbacks, st.Stale, st.Spawns)
}

// renderTrajectoryGolden runs every pinned workload and renders its full wake
// trace, end time and counters.
func renderTrajectoryGolden(parts int) string {
	var b strings.Builder
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		k := NewKernel(seed)
		var trace []string
		randomWorkload(k, seed, &trace)
		end := k.Run(0)
		fmt.Fprintf(&b, "kernel seed=%d end=%v %s\n", seed, end, goldenStats(k.Stats()))
		for _, r := range trace {
			b.WriteString(r)
			b.WriteByte('\n')
		}
	}
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		const nodes = 4
		const lookahead = 5 * time.Microsecond
		ps := NewPartitioned(seed, nodes, parts)
		ps.SetLookahead(lookahead)
		traces := partitionedRandomWorkload(ps, nodes, seed, lookahead)
		end := ps.Run(0)
		fmt.Fprintf(&b, "partitioned seed=%d end=%v %s\n", seed, end, goldenStats(ps.AggregateKernelStats()))
		for _, tr := range traces {
			for _, r := range *tr {
				b.WriteString(r)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// TestTrajectoryGolden is the scheduler's trajectory oracle: the wake trace
// of randomWorkload on one kernel, and of its node-sharded variant split
// over two concurrently running partitions with cross-partition posts, must
// match the committed file byte for byte, together with each run's end time
// and its trajectory-determined counters. Any change to pop order, stamps or
// stale-wake accounting shows up here. The partitioned half is also run on a
// single partition, which must give the same bytes. Regenerate with
// `go test ./internal/simnet -run TestTrajectoryGolden -update` only when a
// change means to move the trajectory.
func TestTrajectoryGolden(t *testing.T) {
	got := renderTrajectoryGolden(2)
	if *update {
		if err := os.WriteFile(trajectoryGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trajectoryGolden)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "2 partitions", got, string(want))
	diffGolden(t, "1 partition", renderTrajectoryGolden(1), string(want))
}

func diffGolden(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: %s differs at line %d:\n got: %s\nwant: %s", what, trajectoryGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %s differs in length: got %d lines, want %d", what, trajectoryGolden, len(gl), len(wl))
}
