package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cashmere/internal/satin"
	"cashmere/internal/simnet"
	"cashmere/internal/svm"
)

// wakeLog records every process slice and queue-depth sample of a kernel.
type wakeLog struct{ b strings.Builder }

func (w *wakeLog) ProcSlice(name string, id int, start, end simnet.Time) {
	fmt.Fprintf(&w.b, "%s#%d %d-%d\n", name, id, start, end)
}

func (w *wakeLog) QueueDepth(t simnet.Time, depth int) { fmt.Fprintf(&w.b, "q %d %d\n", t, depth) }

// launcher makes a few launches and graph runs on one node: each round it
// thinks, then launches a kernel of random size — some large enough to
// stream, some with resident data or declared SVM buffers, a few too large
// for any device — or runs a three-stage graph, and logs the end and
// outcome. run is the launcher as a coroutine (Launch.Run, Graph.Run);
// step is the launcher as a step process reusing one Launch and one
// GraphRun (Prepare, Step). Both draw the same values at the same wakes,
// so both must produce the same events.
type launcher struct {
	name   string
	kern   *Kernel
	graph  *Graph
	bufs   []*svm.Buffer // the last one is homed on another node
	rng    *rand.Rand
	rounds int
	log    *strings.Builder

	// step-process state between wakes
	round int
	phase int // 0 round start, 1 thinking, 2 launching, 3 running the graph
	l     Launch
	gr    GraphRun
}

func (c *launcher) think() time.Duration { return time.Duration(c.rng.Intn(2000)) * time.Microsecond }

// spec draws the round's launch, or nil for a graph run: 16 MiB to 512 MiB
// in, up to as much out, so two or three launches fill a device's memory.
func (c *launcher) spec() *LaunchSpec {
	n := int64(1+c.rng.Intn(32)) << 24
	s := &LaunchSpec{Params: map[string]int64{"n": n}, InBytes: n, OutBytes: n * int64(c.rng.Intn(2))}
	switch c.rng.Intn(8) {
	case 0:
		s.InBytes = 4 << 30 // larger than every device: the CPU fallback
	case 1, 2:
		s.Resident = &Resident{Tag: "shared", Bytes: 32 << 20, Version: c.rng.Intn(2)}
	case 3, 4:
		for i := c.rng.Intn(3); i >= 0; i-- {
			b := c.bufs[c.rng.Intn(len(c.bufs))]
			a := BufferAccess{Buf: b, Mode: svm.Mode(1 + c.rng.Intn(3))}
			if c.rng.Intn(2) == 0 {
				size := b.Bytes(nil)
				off := c.rng.Int63n(size)
				a.Ranges = []svm.Range{{Off: off, Len: c.rng.Int63n(size - off)}}
			}
			s.Buffers = append(s.Buffers, a)
		}
	case 5:
		return nil
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
		var err error
		if s := c.spec(); s != nil {
			err = c.kern.NewLaunch(*s).Run(ctx)
		} else {
			err = c.graph.Run(ctx)
		}
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
			if s := c.spec(); s != nil {
				c.l.Prepare(c.kern, *s)
				c.phase = 2
			} else {
				c.gr.Prepare(c.graph)
				c.phase = 3
			}
		case 2:
			if c.l.Step(p) {
				return true
			}
			c.logDone(p.Now(), c.l.Err())
			c.round, c.phase = c.round+1, 0
		case 3:
			if c.gr.Step(p) {
				return true
			}
			c.logDone(p.Now(), c.gr.err)
			c.round, c.phase = c.round+1, 0
		}
	}
}

// nodeLaunchers runs six launchers on a node with a gtx480 and a k20 (so
// the scheduler chooses between them and each device's memory is
// contended), under the given transport and SVM protocol. With mixed set,
// the first launcher is a step process and each other one a coroutine or a
// step process at random; otherwise all are coroutines. It returns the
// log, the wake trace, the kernel's counters and the node's device and SVM
// totals.
func nodeLaunchers(t *testing.T, seed int64, transport Transport, proto svm.Protocol, mixed bool) (log, wakes string, st simnet.Stats, totals string) {
	cfg := DefaultConfig(1, "gtx480")
	cfg.Nodes[0].Devices = []string{"gtx480", "k20"}
	cfg.Transport = transport
	cfg.SVM.Protocol = proto
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register(mustKS(t, "scale", scaleKernel))
	w := &wakeLog{}
	cl.Kernel().SetTracer(w)
	rng := rand.New(rand.NewSource(seed))
	foreign := svm.NewSpace(cl.Kernel(), 1, nil, svm.Config{}, nil)
	var graph *Graph
	var b strings.Builder
	_, _, err = cl.RunServices(func(ctx *satin.Context) any {
		kern, err := GetKernel(ctx, "scale")
		if err != nil {
			t.Error(err)
			return nil
		}
		if graph, err = GetGraph(ctx, chainSpec("chain", 1<<22, nil)); err != nil {
			t.Error(err)
			return nil
		}
		var bufs []*svm.Buffer
		for _, size := range []int64{4 << 20, 9<<20 + 100} {
			buf, err := NewSVMBuffer(ctx, fmt.Sprintf("b%d", size), size)
			if err != nil {
				t.Error(err)
				return nil
			}
			bufs = append(bufs, buf)
		}
		far, _ := foreign.NewBuffer("far", 2<<20)
		bufs = append(bufs, far)
		for i := 0; i < 6; i++ {
			c := &launcher{name: fmt.Sprintf("l%d", i), kern: kern, graph: graph, bufs: bufs, rng: rand.New(rand.NewSource(rng.Int63())), rounds: 3 + rng.Intn(5), log: &b}
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
	for d, need := range graph.plan.workspace {
		if need > 0 && graph.allocated {
			graph.ws[d].Free() // the graph holds its workspace for life
		}
	}
	ns := cl.NodeState(0)
	for _, d := range ns.Devices {
		if d.MemUsed() != 0 {
			t.Fatalf("seed %d: %s holds %d bytes after the run", seed, d.Name(), d.MemUsed())
		}
		totals += fmt.Sprintf("%s %d launches %d bytes; ", d.Name(), d.Launches(), d.BytesMoved())
	}
	totals += fmt.Sprintf("fallbacks %d flops %g svm %+v", cl.CPUFallbacks(), cl.FlopsCharged(), ns.Space.Counters())
	return b.String(), w.b.String(), cl.Kernel().Stats(), totals
}

// TestLaunchStepMatchesRun: launches and graph runs end at the same times
// with the same outcomes, wakes, trajectory counters and device and SVM
// totals, whether each launcher is a coroutine in Launch.Run and Graph.Run
// or a step process driving a reused Launch and GraphRun with Step —
// through device picks, memory waits, streamed pipelines, resident
// transfers, CPU fallbacks, workspace allocation and, under the SVM
// transport with either protocol, the holds of declared buffer accesses;
// both forms reject a launch that declares a buffer homed on another node.
func TestLaunchStepMatchesRun(t *testing.T) {
	inputs := []struct {
		name      string
		transport Transport
		proto     svm.Protocol
	}{
		{"explicit", TransportExplicit, svm.WriteInvalidate},
		{"svm-wi", TransportSVM, svm.WriteInvalidate},
		{"svm-ro", TransportSVM, svm.RegionOwnership},
	}
	for _, in := range inputs {
		for seed := int64(1); seed <= 20; seed++ {
			coLog, coWakes, coSt, coTot := nodeLaunchers(t, seed, in.transport, in.proto, false)
			mxLog, mxWakes, mxSt, mxTot := nodeLaunchers(t, seed, in.transport, in.proto, true)
			if coLog != mxLog {
				t.Fatalf("%s seed %d: logs differ:\ncoroutines\n%s\nmixed\n%s", in.name, seed, coLog, mxLog)
			}
			if coTot != mxTot {
				t.Fatalf("%s seed %d: totals differ:\ncoroutines %s\nmixed      %s", in.name, seed, coTot, mxTot)
			}
			if coWakes != mxWakes {
				t.Fatalf("%s seed %d: wake traces differ", in.name, seed)
			}
			if coSt.Events != mxSt.Events || coSt.Stale != mxSt.Stale || coSt.Callbacks != mxSt.Callbacks {
				t.Fatalf("%s seed %d: stats differ:\ncoroutines %+v\nmixed      %+v", in.name, seed, coSt, mxSt)
			}
			if mxSt.Steps <= coSt.Steps || mxSt.Switches >= coSt.Switches {
				t.Fatalf("%s seed %d: coroutines %+v, mixed %+v: the step launchers must run as steps", in.name, seed, coSt, mxSt)
			}
		}
	}
}
