package core

import (
	"testing"
	"time"

	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// TestMidRunCrashWithManyCoreLeaves is the regression test for the zombie-
// frame hang: nodes die while device leaves are in flight; the run must
// still terminate with every surviving leaf accounted for, within a bounded
// amount of virtual time.
func TestMidRunCrashWithManyCoreLeaves(t *testing.T) {
	cfg := DefaultConfig(6, "gtx480")
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register(mustKS(t, "scale", scaleKernel))
	rt := cl.Runtime()
	cl.Kernel().SpawnAt(simnet.Time(5*time.Millisecond), "chaos", func(p *simnet.Proc) {
		rt.CrashAsync(p, 4)
		rt.CrashAsync(p, 5)
	})
	const leaves = 64
	done := 0
	var run func(ctx *satin.Context, lo, hi int)
	run = func(ctx *satin.Context, lo, hi int) {
		if hi-lo == 1 {
			k, err := GetKernel(ctx, "scale")
			if err != nil {
				return
			}
			if err := k.NewLaunch(LaunchSpec{
				Params:  map[string]int64{"n": 1 << 22},
				InBytes: 4 << 22, OutBytes: 4 << 22,
			}).Run(ctx); err == nil {
				done++
			}
			return
		}
		if hi-lo <= 4 && !ctx.ManyCore() {
			ctx.EnableManyCore()
		}
		mid := (lo + hi) / 2
		desc := satin.JobDesc{Name: "w", InputBytes: 4 << 22, ResultBytes: 4 << 22}
		ctx.Spawn(desc, func(c *satin.Context) any { run(c, lo, mid); return nil })
		ctx.Spawn(desc, func(c *satin.Context) any { run(c, mid, hi); return nil })
		ctx.Sync()
	}
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		run(ctx, 0, leaves)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The master's view must cover every leaf: leaves it saw complete
	// directly, plus subtrees that were re-executed after the crash.
	if done < leaves-int(rt.JobsReExecuted())*8 || done > leaves+8 {
		t.Fatalf("done = %d of %d (re-executed %d)", done, leaves, rt.JobsReExecuted())
	}
	// Bounded virtual time: a hang manifests as hours of virtual retries.
	if end > simnet.Time(30*time.Second) {
		t.Fatalf("run took %v of virtual time; fault recovery is stuck", end)
	}
}
