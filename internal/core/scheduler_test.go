package core

import (
	"testing"
	"time"

	"cashmere/internal/satin"
)

// TestPinnedLaunchReleasesBacklogOnError: on a one-device node every launch
// lands on device 0, and its booking is released on every error path — bad
// parameters (cost evaluation fails) and out-of-memory.
func TestPinnedLaunchReleasesBacklogOnError(t *testing.T) {
	cfg := DefaultConfig(1, "gtx480")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		ns := cl.NodeState(0)

		// Cost-evaluation failure: the kernel's parameter is missing.
		if err := k.NewLaunch(LaunchSpec{
			Params: map[string]int64{"wrong": 1},
		}).Run(ctx); err == nil {
			t.Error("launch with bad params succeeded")
		}
		if got := ns.Sched.Backlog(0); got != 0 {
			t.Errorf("backlog after cost error = %v", got)
		}

		// Out-of-memory failure: 4 GB on a 1.5 GB device.
		if err := k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": 1 << 30},
			InBytes: 4 << 30,
		}).Run(ctx); err == nil {
			t.Error("oversized launch succeeded")
		}
		if got := ns.Sched.Backlog(0); got != 0 {
			t.Errorf("backlog after OOM error = %v", got)
		}
		return nil
	})
}

// TestBacklogNeverNegativeUnderConcurrentLaunches: jobs finishing out of
// order release estimates that may exceed the remaining booked backlog; the
// clamp keeps Backlog at >= 0 at every observation point.
func TestBacklogNeverNegativeUnderConcurrentLaunches(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cfg.Nodes[0] = NodeSpec{Devices: []string{"gtx480", "k20"}}
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		ctx.EnableManyCore()
		ns := cl.NodeState(0)
		sizes := []int64{1 << 14, 1 << 18, 1 << 20, 1 << 16, 1 << 19, 1 << 15, 1 << 17, 1 << 18}
		for _, n := range sizes {
			n := n
			ctx.Spawn(satin.JobDesc{Name: "leaf"}, func(c *satin.Context) any {
				k, _ := GetKernel(c, "scale")
				if err := k.NewLaunch(LaunchSpec{
					Params:  map[string]int64{"n": n},
					InBytes: 4 * n, OutBytes: 4 * n,
				}).Run(c); err != nil {
					t.Error(err)
				}
				for d := range ns.Devices {
					if got := ns.Sched.Backlog(d); got < 0 {
						t.Errorf("backlog(%d) = %v after a completion", d, got)
					}
				}
				return nil
			})
		}
		ctx.Sync()
		return nil
	})
	ns := cl.NodeState(0)
	for d := range ns.Devices {
		if got := ns.Sched.Backlog(d); got != 0 {
			t.Fatalf("backlog(%d) = %v after the run, want 0", d, got)
		}
	}
}

// TestSchedulerDoneClampsOverRelease: releasing a larger estimate than was
// booked clamps at zero rather than going negative.
func TestSchedulerDoneClampsOverRelease(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any { return nil })
	s := cl.NodeState(0).Sched
	_, est := s.Pick("scale")
	s.Done("scale", 0, est+50*time.Millisecond, 10*time.Millisecond)
	if got := s.Backlog(0); got != 0 {
		t.Fatalf("over-release left backlog %v", got)
	}
}
