package core

import (
	"fmt"

	"cashmere/internal/ocl"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// Graph is a GraphSpec instantiated on one node: the compiled plan plus the
// device workspace and pooled per-run state. Obtain one with GetGraph (the
// node caches it per spec) and submit runs with Run; repeat submissions
// allocate nothing.
type Graph struct {
	ns   *NodeState
	spec *GraphSpec
	plan *gplan

	ws         []ocl.Buffer // per-device workspace, allocated on first Run
	allocated  bool
	allocating bool            // a first Run is mid-allocation; later Runs wait
	allocWait  simnet.WaitList // Runs waiting behind the allocating one
	free       *GraphRun       // pooled runs of Run
}

// GraphRun is one submission of a Graph as a state machine, like Launch:
// Step waits for the workspace, allocates it, submits every planned op and
// awaits the terminal ones, and Graph.Run is Proc.StepUntil over Step.
type GraphRun struct {
	g    *Graph
	step func(*simnet.Proc) bool // Step, bound once for Graph.Run
	next *GraphRun               // Graph.free link

	// The run in progress: its phase, the device it allocates on or the
	// terminal it awaits, an event per planned op, the bytes it moves and
	// its resident hits; err is the outcome.
	phase      graphPhase
	i          int
	ev         []ocl.Event
	moved, hit int64
	err        error
}

// graphPhase is the wait a graph run is in.
type graphPhase uint8

const (
	graphIdle  graphPhase = iota // not started (or waiting for another run's workspace), or finished
	graphAlloc                   // allocating the workspace
	graphAwait                   // awaiting the terminal operations
)

// GetGraph instantiates (or returns the cached instance of) spec on the
// calling node. Planning happens once; the plan is a pure function of the
// spec and the device models, so it is identical on identical nodes and at
// any -partitions count.
func GetGraph(ctx *satin.Context, spec *GraphSpec) (*Graph, error) {
	ns, ok := ctx.Node().DeviceState().(*NodeState)
	if !ok {
		return nil, fmt.Errorf("core: node %d has no Cashmere state", ctx.NodeID())
	}
	if g, ok := ns.graphs[spec]; ok {
		return g, nil
	}
	g, err := ns.planGraph(spec)
	if err != nil {
		return nil, err
	}
	ns.graphs[spec] = g
	return g, nil
}

// RunGraph is the one-call form: instantiate (cached) and run.
func RunGraph(ctx *satin.Context, spec *GraphSpec) error {
	g, err := GetGraph(ctx, spec)
	if err != nil {
		return err
	}
	return g.Run(ctx)
}

// Run submits one execution of the whole DAG, blocking the calling frame in
// virtual time until the graph's terminal operations complete. All planned
// operations are enqueued up front on the per-engine command queues, so
// independent branches and cross-stage transfers overlap exactly as far as
// the event graph allows. External inputs transfer only when their Version
// is new to the device; intermediate buffers chain device-resident. Run is
// Proc.StepUntil over a pooled GraphRun.
//
// Run may be called concurrently from multiple leaves (submissions pipeline
// through the in-order queues) and repeatedly (iterative applications); the
// steady-state path performs no allocations.
func (g *Graph) Run(ctx *satin.Context) error {
	r := g.free
	if r == nil {
		r = &GraphRun{}
		r.step = r.Step
	}
	g.free = r.next
	r.Prepare(g)
	ctx.Proc().StepUntil(r.step)
	r.next, g.free = g.free, r
	return r.err
}

// Prepare makes r a submission of g, so a step process can reuse one
// GraphRun for all its runs. r must not be in progress.
func (r *GraphRun) Prepare(g *Graph) {
	if r.phase != graphIdle {
		panic("core: Prepare of a graph run in progress")
	}
	if n := len(g.plan.ops); cap(r.ev) < n {
		r.ev = make([]ocl.Event, n)
	}
	r.g, r.ev = g, r.ev[:len(g.plan.ops)]
}

// Step runs the submission as steps of a step process p, as Launch.Step
// runs a launch; once it returns false, Err holds what Graph.Run would
// have returned.
func (r *GraphRun) Step(p *simnet.Proc) bool {
	g := r.g
	for {
		switch r.phase {
		case graphIdle:
			// Concurrent first runs must not each allocate the workspace:
			// only one proceeds, the rest wait until it is done.
			if g.allocating {
				g.allocWait.Arm(p)
				return true
			}
			g.allocating = !g.allocated
			r.phase, r.i = graphAlloc, 0
		case graphAlloc:
			// One workspace blob per device, held for the Graph's lifetime.
			// Allocation order is by device index: concurrent first runs of
			// distinct graphs allocate in the same order, so they cannot
			// deadlock against each other.
			for ; g.allocating && r.i < len(g.ws); r.i++ {
				if need := g.plan.workspace[r.i]; need > 0 {
					if ok, err := g.ns.Devices[r.i].AllocStep(p, &g.ws[r.i], need); err != nil {
						panic(err) // planning checked that the workspace fits
					} else if !ok {
						return true
					}
				}
			}
			if g.allocating {
				g.allocated, g.allocating = true, false
				g.allocWait.WakeAll(p.Kernel())
			}
			r.submit()
			r.phase, r.i = graphAwait, 0
		case graphAwait:
			for ; r.i < len(g.plan.terminals); r.i++ {
				if !r.ev[g.plan.terminals[r.i]].Await(p) {
					return true
				}
			}
			r.finish()
			return false
		}
	}
}

// Err reports the outcome of the last finished run.
func (r *GraphRun) Err() error { return r.err }

// submit books the plan's devices and enqueues every planned operation.
func (r *GraphRun) submit() {
	g, ns := r.g, r.g.ns
	for d, t := range g.plan.book {
		if t > 0 {
			ns.Sched.Book(d, t)
		}
	}
	r.moved, r.hit = g.plan.plannedBytes, g.plan.chainHits
	var depbuf [maxGraphDeps]ocl.Event
	for i := range g.plan.ops {
		op := &g.plan.ops[i]
		dev := ns.Devices[op.dev]
		nd := 0
		for _, di := range op.deps {
			depbuf[nd] = r.ev[di]
			nd++
		}
		switch op.kind {
		case gopH2D:
			if op.input != nil {
				ev, hit := ns.stageResident(op.dev, op.rtag, op.input.version, op.bytes, op.label, depbuf[:nd]...)
				r.ev[i] = ev
				if hit {
					r.hit++
				} else {
					r.moved += op.bytes
				}
			} else {
				r.ev[i] = ns.stageH2D(op.dev, op.bytes, op.label, depbuf[:nd]...)
			}
		case gopD2H:
			r.ev[i] = ns.stageD2H(op.dev, op.bytes, op.label, depbuf[:nd]...)
		case gopKernel:
			r.ev[i] = dev.EnqueueLaunch(op.cost, op.label, depbuf[:nd]...)
		}
	}
}

// finish books a completed run and runs every stage for real under Verify.
func (r *GraphRun) finish() {
	g, ns := r.g, r.g.ns
	for d, t := range g.plan.book {
		if t > 0 {
			ns.Sched.Release(d, t)
		}
	}
	for _, rc := range g.plan.records {
		ns.Sched.Record(rc.kernel, rc.dev, rc.kt)
	}
	ns.flopsCharged += g.plan.flops
	ns.graphRuns++
	ns.graphStages += int64(len(g.spec.stages))
	ns.graphResidentHits += r.hit
	ns.graphBytesSaved += g.spec.NaiveBytes() - r.moved
	r.phase, r.err = graphIdle, nil
	if ns.cl.cfg.Verify {
		for si := range g.spec.stages {
			s := &g.spec.stages[si]
			if err := g.plan.verify[si].Run(s.Args...); err != nil {
				r.err = fmt.Errorf("core: graph %s, stage %d (%s): verification execution failed: %w",
					g.spec.name, si, s.Kernel, err)
				return
			}
		}
	}
}

// Close releases the graph's device workspace. Subsequent Runs reallocate.
func (g *Graph) Close() {
	if g.allocated {
		for d := range g.ws {
			if g.plan.workspace[d] > 0 {
				g.ws[d].Free()
			}
		}
	}
	g.allocated = false
}

// RunNaive executes the graph as the equivalent naive per-kernel launch
// sequence: one scheduler-placed Launch per stage, every stage shipping its
// inputs down and its outputs back. It is the differential baseline for
// Graph.Run — identical results under Verify, strictly more PCIe traffic —
// and what an application without the graph API would do. A stage too large
// for the device the scheduler picks fails here as any single launch does.
func (gs *GraphSpec) RunNaive(ctx *satin.Context) error {
	if err := gs.Validate(); err != nil {
		return err
	}
	for si := range gs.stages {
		s := &gs.stages[si]
		k, err := GetKernel(ctx, s.Kernel)
		if err != nil {
			return err
		}
		var in, out int64
		for _, b := range s.Reads {
			in += b.bytes
		}
		for _, b := range s.Broadcast {
			in += b.bytes
		}
		for _, b := range s.Writes {
			out += b.bytes
		}
		spec := LaunchSpec{
			Params: s.Params, InBytes: in, OutBytes: out,
			Label: gs.name + "." + s.Label + ".naive", Args: s.Args,
		}
		if err := k.NewLaunch(spec).Run(ctx); err != nil {
			return err
		}
	}
	return nil
}
