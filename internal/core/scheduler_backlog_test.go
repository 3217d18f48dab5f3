package core

import (
	"math/rand"
	"testing"

	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// schedForTest builds a scheduler over a real multi-device node without
// running the cluster.
func schedForTest(t *testing.T, devices ...string) *Scheduler {
	t.Helper()
	cfg := DefaultConfig(1, devices[0])
	cfg.Nodes[0] = NodeSpec{Devices: devices}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl.NodeState(0).Sched
}

// TestSchedulerBacklogInterleavedPickDone drives the backlog accounting the
// way concurrent serving dispatchers do: many jobs outstanding at once,
// completions interleaved with submissions in arbitrary order, and measured
// times landing between a job's Pick and its Done (which changes the
// estimates later Picks book). The backlog must never go negative and must
// return to exactly zero once everything completes.
func TestSchedulerBacklogInterleavedPickDone(t *testing.T) {
	s := schedForTest(t, "gtx480", "k20", "xeon_phi")
	rng := rand.New(rand.NewSource(11))
	kernels := []string{"a", "b", "c"}

	type job struct {
		kernel string
		dev    int
		est    simnet.Duration
	}
	var outstanding []job
	checkNonNegative := func() {
		for d := 0; d < 3; d++ {
			if s.pending[d] < 0 {
				t.Fatalf("device %d backlog went negative: %v", d, s.pending[d])
			}
		}
	}
	for i := 0; i < 2000; i++ {
		if len(outstanding) == 0 || (len(outstanding) < 32 && rng.Intn(2) == 0) {
			kn := kernels[rng.Intn(len(kernels))]
			dev, est := s.Pick(kn)
			outstanding = append(outstanding, job{kn, dev, est})
		} else {
			// Complete a random outstanding job with a measured time that
			// differs from the estimate (so later estimates shift).
			j := rng.Intn(len(outstanding))
			jb := outstanding[j]
			outstanding[j] = outstanding[len(outstanding)-1]
			outstanding = outstanding[:len(outstanding)-1]
			measured := simnet.Duration(rng.Intn(5e6) + 1)
			s.Done(jb.kernel, jb.dev, jb.est, measured)
		}
		checkNonNegative()
	}
	for _, jb := range outstanding {
		s.Done(jb.kernel, jb.dev, jb.est, simnet.Duration(1e6))
	}
	for d := 0; d < 3; d++ {
		if s.pending[d] != 0 {
			t.Fatalf("device %d backlog %v after all jobs completed, want 0", d, s.pending[d])
		}
	}
}

// TestSchedulerBacklogReleasedOnErrorPaths checks that a launch that fails —
// unknown kernel parameter, or a working set that can never fit the device —
// still releases its booked estimate, so a serving frontend that sheds the
// request does not leak backlog and skew every later placement decision.
func TestSchedulerBacklogReleasedOnErrorPaths(t *testing.T) {
	cfg := DefaultConfig(1, "gtx480")
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(mustKS(t, "scale", scaleKernel)); err != nil {
		t.Fatal(err)
	}
	_, _, err = cl.Run(func(ctx *satin.Context) any {
		k, err := GetKernel(ctx, "scale")
		if err != nil {
			t.Error(err)
			return nil
		}
		s := cl.NodeState(0).Sched

		// Unknown parameter: the cost model rejects the launch after Pick.
		err = k.NewLaunch(LaunchSpec{Params: map[string]int64{"bogus": 1}}).Run(ctx)
		if err == nil {
			t.Error("launch with unknown parameter succeeded")
		}
		if got := s.pending[0]; got != 0 {
			t.Errorf("backlog %v after cost-model error, want 0", got)
		}

		// Working set larger than device memory: CPU fallback error after
		// Pick.
		huge := cl.NodeState(0).Devices[0].Spec().GlobalMem + 1
		err = k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": 16},
			InBytes: huge,
		}).Run(ctx)
		if err == nil {
			t.Error("launch larger than device memory succeeded")
		}
		if got := s.pending[0]; got != 0 {
			t.Errorf("backlog %v after out-of-memory error, want 0", got)
		}
		if cl.CPUFallbacks() == 0 {
			t.Error("CPU fallback not counted")
		}

		// A successful launch releases its booking the same way.
		err = k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": 1024},
			InBytes: 4096, OutBytes: 4096,
		}).Run(ctx)
		if err != nil {
			t.Errorf("launch failed: %v", err)
		}
		if got := s.pending[0]; got != 0 {
			t.Errorf("backlog %v after launch completed, want 0", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerBacklogUnderConcurrentLaunches runs many concurrent frames
// launching on the same node (the serving dispatch pattern) and asserts the
// backlog drains to zero and never went negative while jobs were in flight.
func TestSchedulerBacklogUnderConcurrentLaunches(t *testing.T) {
	cfg := DefaultConfig(1, "gtx480")
	cfg.Nodes[0] = NodeSpec{Devices: []string{"gtx480", "k20"}}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(mustKS(t, "scale", scaleKernel)); err != nil {
		t.Fatal(err)
	}
	_, _, err = cl.Run(func(ctx *satin.Context) any {
		ctx.EnableManyCore()
		s := cl.NodeState(0).Sched
		const frames = 12
		done := make([]bool, frames)
		for i := 0; i < frames; i++ {
			i := i
			ctx.Spawn(satin.JobDesc{}, func(c *satin.Context) any {
				k, err := GetKernel(c, "scale")
				if err != nil {
					t.Error(err)
					return nil
				}
				for j := 0; j < 4; j++ {
					err := k.NewLaunch(LaunchSpec{
						Params:  map[string]int64{"n": 64 * 1024},
						InBytes: 256 * 1024, OutBytes: 256 * 1024,
					}).Run(c)
					if err != nil {
						t.Error(err)
					}
					if s.pending[0] < 0 || s.pending[1] < 0 {
						t.Error("backlog went negative during concurrent launches")
					}
				}
				done[i] = true
				return nil
			})
		}
		ctx.Sync()
		for i := range done {
			if !done[i] {
				t.Errorf("frame %d did not complete", i)
			}
		}
		if s.pending[0] != 0 || s.pending[1] != 0 {
			t.Errorf("backlog %v/%v after sync, want 0/0", s.pending[0], s.pending[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
