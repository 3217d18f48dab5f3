package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// wakeLog records every process slice and queue-depth sample of a kernel.
type wakeLog struct{ b strings.Builder }

func (w *wakeLog) ProcSlice(name string, id int, start, end simnet.Time) {
	fmt.Fprintf(&w.b, "%s#%d %d-%d\n", name, id, start, end)
}

func (w *wakeLog) QueueDepth(t simnet.Time, depth int) { fmt.Fprintf(&w.b, "q %d %d\n", t, depth) }

// launcher makes a few launches on one node: each round it thinks, then
// launches a kernel of random size — some large enough to stream, some
// with resident data, a few too large for any device — and logs the end
// and outcome. run is the launcher as a coroutine (Launch.Run); step is the
// launcher as a step process reusing one Launch (Prepare, Step). Both draw
// the same values at the same wakes, so both must produce the same events.
type launcher struct {
	name   string
	kern   *Kernel
	rng    *rand.Rand
	rounds int
	log    *strings.Builder

	// step-process state between wakes
	round int
	phase int // 0 round start, 1 thinking, 2 launching
	l     Launch
}

func (c *launcher) think() time.Duration { return time.Duration(c.rng.Intn(2000)) * time.Microsecond }

// spec draws the round's launch: 16 MiB to 512 MiB in, up to as much out,
// so two or three launches fill a device's memory.
func (c *launcher) spec() LaunchSpec {
	n := int64(1+c.rng.Intn(32)) << 24
	s := LaunchSpec{Params: map[string]int64{"n": n}, InBytes: n, OutBytes: n * int64(c.rng.Intn(2))}
	switch c.rng.Intn(8) {
	case 0:
		s.InBytes = 4 << 30 // larger than every device: the CPU fallback
	case 1, 2:
		s.Resident = &Resident{Tag: "shared", Bytes: 32 << 20, Version: c.rng.Intn(2)}
	}
	return s
}

func (c *launcher) logDone(now simnet.Time, err error) {
	fmt.Fprintf(c.log, "%s %d %d %v\n", c.name, c.round, now, err != nil)
}

func (c *launcher) run(ctx *satin.Context) {
	p := ctx.Proc()
	for ; c.round < c.rounds; c.round++ {
		p.Hold(c.think())
		err := c.kern.NewLaunch(c.spec()).Run(ctx)
		c.logDone(p.Now(), err)
	}
}

func (c *launcher) step(p *simnet.Proc) bool {
	for {
		switch c.phase {
		case 0:
			if c.round == c.rounds {
				return false
			}
			c.phase = 1
			p.Arm(c.think())
			return true
		case 1:
			c.l.Prepare(c.kern, c.spec())
			c.phase = 2
		case 2:
			if c.l.Step(p) {
				return true
			}
			c.logDone(p.Now(), c.l.Err())
			c.round, c.phase = c.round+1, 0
		}
	}
}

// nodeLaunchers runs six launchers on a node with a gtx480 and a k20 (so
// the scheduler chooses between them and each device's memory is
// contended). With mixed set, the first launcher is a step process and
// each other one a coroutine or a step process at random; otherwise all
// are coroutines. It returns the log, the wake trace, the kernel's
// counters and the node's device totals.
func nodeLaunchers(t *testing.T, seed int64, mixed bool) (log, wakes string, st simnet.Stats, totals string) {
	cfg := DefaultConfig(1, "gtx480")
	cfg.Nodes[0].Devices = []string{"gtx480", "k20"}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register(mustKS(t, "scale", scaleKernel))
	w := &wakeLog{}
	cl.Kernel().SetTracer(w)
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	_, _, err = cl.RunServices(func(ctx *satin.Context) any {
		kern, err := GetKernel(ctx, "scale")
		if err != nil {
			t.Error(err)
			return nil
		}
		for i := 0; i < 6; i++ {
			c := &launcher{name: fmt.Sprintf("l%d", i), kern: kern, rng: rand.New(rand.NewSource(rng.Int63())), rounds: 3 + rng.Intn(5), log: &b}
			if stepped := rng.Intn(2) == 0 || i == 0; stepped && mixed {
				ctx.Node().GoLocalStep(c.step)
			} else {
				ctx.Node().GoLocal(c.run)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := cl.NodeState(0)
	for _, d := range ns.Devices {
		if d.MemUsed() != 0 {
			t.Fatalf("seed %d: %s holds %d bytes after the run", seed, d.Name(), d.MemUsed())
		}
		totals += fmt.Sprintf("%s %d launches %d bytes; ", d.Name(), d.Launches(), d.BytesMoved())
	}
	totals += fmt.Sprintf("fallbacks %d flops %g", cl.CPUFallbacks(), cl.FlopsCharged())
	return b.String(), w.b.String(), cl.Kernel().Stats(), totals
}

// TestLaunchStepMatchesRun: launches end at the same times with the same
// outcomes, wakes, trajectory counters and device totals, whether each
// launcher is a coroutine in Launch.Run or a step process driving a reused
// Launch with Step — through device picks, memory waits, streamed
// pipelines, resident transfers and CPU fallbacks.
func TestLaunchStepMatchesRun(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		coLog, coWakes, coSt, coTot := nodeLaunchers(t, seed, false)
		mxLog, mxWakes, mxSt, mxTot := nodeLaunchers(t, seed, true)
		if coLog != mxLog {
			t.Fatalf("seed %d: logs differ:\ncoroutines\n%s\nmixed\n%s", seed, coLog, mxLog)
		}
		if coTot != mxTot {
			t.Fatalf("seed %d: device totals differ:\ncoroutines %s\nmixed      %s", seed, coTot, mxTot)
		}
		if coWakes != mxWakes {
			t.Fatalf("seed %d: wake traces differ", seed)
		}
		if coSt.Events != mxSt.Events || coSt.Stale != mxSt.Stale || coSt.Callbacks != mxSt.Callbacks {
			t.Fatalf("seed %d: stats differ:\ncoroutines %+v\nmixed      %+v", seed, coSt, mxSt)
		}
		if mxSt.Steps <= coSt.Steps || mxSt.Switches >= coSt.Switches {
			t.Fatalf("seed %d: coroutines %+v, mixed %+v: the step launchers must run as steps", seed, coSt, mxSt)
		}
	}
}

// TestLaunchStepRefusesSVM: under the SVM transport a launch's page
// acquires block, so its kernel is not Steppable and Step panics.
func TestLaunchStepRefusesSVM(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cfg.Transport = TransportSVM
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	var steppable bool
	var refused any
	cl.RunServices(func(ctx *satin.Context) any {
		kern, err := GetKernel(ctx, "scale")
		if err != nil {
			t.Error(err)
			return nil
		}
		steppable = kern.Steppable()
		var l Launch
		l.Prepare(kern, LaunchSpec{Params: map[string]int64{"n": 1 << 10}, InBytes: 4 << 10})
		ctx.Node().GoLocalStep(func(p *simnet.Proc) bool {
			defer func() { refused = recover() }()
			l.Step(p)
			return false
		})
		return nil
	})
	if steppable {
		t.Fatal("a kernel under the SVM transport reports Steppable")
	}
	if refused == nil {
		t.Fatal("Launch.Step under the SVM transport did not panic")
	}
}
