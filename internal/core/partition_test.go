package core

import (
	"fmt"
	"strings"
	"testing"

	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// runPartitionedWorkload runs a steal-heavy divide-and-conquer workload with
// device leaves and returns the metric dump, which covers the full
// trajectory (events, steals, traffic, launches, virtual time).
func runPartitionedWorkload(t *testing.T, seed int64, nodes, partitions int) string {
	t.Helper()
	cfg := DefaultConfig(nodes, "gtx480")
	cfg.Seed = seed
	cfg.Partitions = partitions
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register(mustKS(t, "scale", scaleKernel))
	const leaves = 16
	var leaf func(ctx *satin.Context, lo, hi int)
	leaf = func(ctx *satin.Context, lo, hi int) {
		if hi-lo == 1 {
			k, err := GetKernel(ctx, "scale")
			if err != nil {
				t.Error(err)
				return
			}
			k.NewLaunch(LaunchSpec{
				Params:  map[string]int64{"n": 1 << 18},
				InBytes: 4 << 18, OutBytes: 4 << 18,
			}).Run(ctx)
			return
		}
		mid := (lo + hi) / 2
		ctx.Spawn(satin.JobDesc{
			Name: fmt.Sprintf("r[%d,%d)", lo, mid), InputBytes: 4 << 18, ResultBytes: 8,
		}, func(c *satin.Context) any { leaf(c, lo, mid); return nil })
		ctx.Spawn(satin.JobDesc{
			Name: fmt.Sprintf("r[%d,%d)", mid, hi), InputBytes: 4 << 18, ResultBytes: 8,
		}, func(c *satin.Context) any { leaf(c, mid, hi); return nil })
		ctx.Sync()
	}
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		leaf(ctx, 0, leaves)
		return end2end
	})
	if err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("zero virtual completion time")
	}
	return cl.CollectMetrics().Format()
}

const end2end = "done"

// TestPartitionedTrajectoryIdentity is the determinism contract of the
// conservative parallel scheduler, checked as a property over seeds and
// uneven cluster shapes: every partition layout of every (seed, nodes) pair
// must produce the byte-identical metric dump of the sequential kernel.
func TestPartitionedTrajectoryIdentity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, nodes := range []int{3, 4, 5, 6} {
			seq := runPartitionedWorkload(t, seed, nodes, 1)
			for _, parts := range []int{2, 3, 4} {
				if parts > nodes {
					continue
				}
				if got := runPartitionedWorkload(t, seed, nodes, parts); got != seq {
					t.Errorf("seed %d, %d nodes, %d partitions diverged from sequential: %s",
						seed, nodes, parts, firstDiff(seq, got))
				}
			}
		}
	}
}

// firstDiff describes the first line at which two metric dumps differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("%q, want %q", g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestPartitionedStatsAccount checks that a parallel run actually exercises
// the window protocol and counts cross-partition traffic.
func TestPartitionedStatsAccount(t *testing.T) {
	cfg := DefaultConfig(4, "gtx480")
	cfg.Partitions = 4
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register(mustKS(t, "scale", scaleKernel))
	if _, _, err := cl.Run(func(ctx *satin.Context) any {
		for i := 0; i < 8; i++ {
			ctx.Spawn(satin.JobDesc{Name: "leaf", InputBytes: 1 << 16, ResultBytes: 8},
				func(c *satin.Context) any {
					c.Compute(simnet.Duration(2_000_000), "leaf")
					return nil
				})
		}
		ctx.Sync()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := cl.ps.Stats()
	if st.Partitions != 4 {
		t.Fatalf("partitions = %d", st.Partitions)
	}
	if st.Rounds == 0 {
		t.Fatal("no synchronization rounds recorded")
	}
	var sent, recv int64
	for _, p := range st.Parts {
		sent += p.CrossSent
		recv += p.CrossRecv
	}
	if sent == 0 || sent != recv {
		t.Fatalf("cross-partition events sent=%d recv=%d", sent, recv)
	}
	if cl.ps.Lookahead() <= 0 {
		t.Fatal("no lookahead registered by the network layer")
	}
}
