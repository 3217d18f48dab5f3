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

	ws         []*ocl.Buffer // per-device workspace, allocated on first Run
	allocated  bool
	allocating bool            // a first Run is mid-allocation; later Runs park
	allocWait  simnet.WaitList // Runs parked behind the allocating one
	free       *graphRun       // pooled per-run event state
}

// graphRun is the per-submission state: one event slot per planned op.
type graphRun struct {
	ev   []ocl.Event
	next *graphRun
}

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

// Spec returns the graph's template.
func (g *Graph) Spec() *GraphSpec { return g.spec }

// Run submits one execution of the whole DAG, blocking the calling frame in
// virtual time until the graph's terminal operations complete. All planned
// operations are enqueued up front on the per-engine command queues, so
// independent branches and cross-stage transfers overlap exactly as far as
// the event graph allows. External inputs transfer only when their Version
// is new to the device; intermediate buffers chain device-resident.
//
// Run may be called concurrently from multiple leaves (submissions pipeline
// through the in-order queues) and repeatedly (iterative applications); the
// steady-state path performs no allocations.
func (g *Graph) Run(ctx *satin.Context) error {
	ns := g.ns
	p := ctx.Proc()

	// Concurrent first Runs must not each allocate the workspace: only one
	// proceeds, the rest park until it finishes (or fails, in which case the
	// next waiter retries).
	for g.allocating {
		g.allocWait.Park(p)
	}
	if !g.allocated {
		// One workspace blob per device, held for the Graph's lifetime.
		// Allocation order is by device index: concurrent first Runs of
		// distinct graphs acquire in the same order, so they cannot
		// deadlock against each other.
		g.allocating = true
		for d := range g.ws {
			need := g.plan.workspace[d]
			if need == 0 {
				continue
			}
			buf, err := ns.Devices[d].AllocBlocking(p, need)
			if err != nil {
				g.releaseWorkspace()
				g.allocating = false
				g.allocWait.WakeAll(p.Kernel())
				return err
			}
			g.ws[d] = buf
		}
		g.allocated = true
		g.allocating = false
		g.allocWait.WakeAll(p.Kernel())
	}

	for d, t := range g.plan.book {
		if t > 0 {
			ns.Sched.Book(d, t)
		}
	}

	rs := g.free
	if rs == nil {
		rs = &graphRun{ev: make([]ocl.Event, len(g.plan.ops))}
	} else {
		g.free = rs.next
		rs.next = nil
	}

	moved := g.plan.plannedBytes
	hits := g.plan.chainHits
	var depbuf [maxGraphDeps]ocl.Event
	for i := range g.plan.ops {
		op := &g.plan.ops[i]
		dev := ns.Devices[op.dev]
		nd := 0
		for _, di := range op.deps {
			depbuf[nd] = rs.ev[di]
			nd++
		}
		switch op.kind {
		case gopH2D:
			if op.input != nil {
				ev, hit := ns.stageResident(op.dev, op.rtag, op.input.version, op.bytes, op.label, depbuf[:nd]...)
				rs.ev[i] = ev
				if hit {
					hits++
				} else {
					moved += op.bytes
				}
			} else {
				rs.ev[i] = ns.stageH2D(op.dev, op.bytes, op.label, depbuf[:nd]...)
			}
		case gopD2H:
			rs.ev[i] = ns.stageD2H(op.dev, op.bytes, op.label, depbuf[:nd]...)
		case gopKernel:
			rs.ev[i] = dev.EnqueueLaunch(op.cost, op.label, depbuf[:nd]...)
		}
	}

	for _, ti := range g.plan.terminals {
		rs.ev[ti].Wait(p)
	}

	for d, t := range g.plan.book {
		if t > 0 {
			ns.Sched.Release(d, t)
		}
	}
	for _, r := range g.plan.records {
		ns.Sched.Record(r.kernel, r.dev, r.kt)
	}
	ns.flopsCharged += g.plan.flops
	ns.graphRuns++
	ns.graphStages += int64(len(g.spec.stages))
	ns.graphResidentHits += hits
	ns.graphBytesSaved += g.spec.NaiveBytes() - moved

	rs.next = g.free
	g.free = rs

	if ns.cl.cfg.Verify {
		for si := range g.spec.stages {
			s := &g.spec.stages[si]
			if err := g.plan.verify[si].Run(s.Args...); err != nil {
				return fmt.Errorf("core: graph %s, stage %d (%s): verification execution failed: %w",
					g.spec.name, si, s.Kernel, err)
			}
		}
	}
	return nil
}

// Close releases the graph's device workspace. Subsequent Runs reallocate.
func (g *Graph) Close() {
	g.releaseWorkspace()
	g.allocated = false
}

func (g *Graph) releaseWorkspace() {
	for d, buf := range g.ws {
		if buf != nil {
			buf.Free()
			g.ws[d] = nil
		}
	}
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
