package core

import (
	"testing"

	"cashmere/internal/satin"
)

// TestRunServicesSendsNoStealProbes runs the same many-core graph fleet
// under Run and under RunServices on 4 nodes. Nothing in it is stealable,
// so both must finish at the same virtual time with the same graph
// accounting. Under Run the idle workers still probe victims; under
// RunServices no node sends a steal_request (every probe ends in exactly
// one of steals_ok or steals_failed) and the only network traffic is the
// shutdown broadcast.
func TestRunServicesSendsNoStealProbes(t *testing.T) {
	const nodes = 4
	for _, parts := range []int{1, 2} {
		run := func(services bool) (int64, *Cluster) {
			cfg := DefaultConfig(nodes, "k20")
			cfg.Partitions = parts
			cl, _ := NewCluster(cfg)
			cl.Register(mustKS(t, "scale", scaleKernel))
			gs := chainSpec("svc", 1<<18, nil)
			main := func(ctx *satin.Context) any {
				ctx.EnableManyCore()
				for i := 0; i < 8; i++ {
					ctx.Spawn(satin.JobDesc{Name: "leaf", InputBytes: 64, ResultBytes: 64},
						func(c *satin.Context) any {
							for it := 0; it < 3; it++ {
								if err := RunGraph(c, gs); err != nil {
									t.Error(err)
								}
							}
							return nil
						})
				}
				ctx.Sync()
				return nil
			}
			entry := cl.Run
			if services {
				entry = cl.RunServices
			}
			_, end, err := entry(main)
			if err != nil {
				t.Fatal(err)
			}
			return int64(end), cl
		}
		endRun, clRun := run(false)
		endSvc, clSvc := run(true)
		mRun, mSvc := clRun.CollectMetrics(), clSvc.CollectMetrics()
		if endRun != endSvc {
			t.Errorf("parts=%d: end %d under Run, %d under RunServices", parts, endRun, endSvc)
		}
		for _, key := range []string{"graph.runs", "graph.resident_hits", "mcl.bytes_moved", "mcl.launches"} {
			if mRun.Int(key) != mSvc.Int(key) {
				t.Errorf("parts=%d: %s = %d under Run, %d under RunServices", parts, key, mRun.Int(key), mSvc.Int(key))
			}
		}
		if mRun.Int("satin.steals_failed") == 0 {
			t.Errorf("parts=%d: Run sent no steal probes; the test proves nothing", parts)
		}
		if got := mSvc.Int("satin.steals_failed") + mSvc.Int("satin.steals_ok"); got != 0 {
			t.Errorf("parts=%d: RunServices made %d steal probes, want 0", parts, got)
		}
		if got := mSvc.Int("net.messages_sent"); got != nodes-1 {
			t.Errorf("parts=%d: RunServices sent %d messages, want %d (the shutdown broadcast)", parts, got, nodes-1)
		}
	}
}
