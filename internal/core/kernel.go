package core

import (
	"fmt"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/ocl"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
	"cashmere/internal/svm"
)

const (
	// streamThreshold is the in-core launch size (in + out bytes) at which
	// the runtime switches from one write/launch/read triple to a
	// double-buffered pipeline of passes, overlapping PCIe with compute
	// within a single launch (Sec. III-B).
	streamThreshold = 128 << 20
	// streamChunk is the target per-pass payload of an in-core pipeline.
	streamChunk = 64 << 20
	// maxStreamPasses caps pipeline depth: per-pass launch overhead is real,
	// and past a handful of passes the overlap win is already banked.
	maxStreamPasses = 8
)

// Kernel is the handle returned by GetKernel: the named kernel, compiled
// for every device of the calling node.
type Kernel struct {
	ns       *NodeState
	name     string
	compiled []*codegen.Compiled // per device
}

// LaunchSpec describes one kernel launch. The scheduler places every launch
// (Sec. III-B), and its data must fit the chosen device's memory: a launch
// that can never fit returns an error and the caller runs its CPU fallback
// (Fig. 4).
type LaunchSpec struct {
	// Params gives concrete values for the kernel's scalar int parameters;
	// the cost model and the work-group glue are evaluated with them.
	Params map[string]int64
	// InBytes / OutBytes are the host->device / device->host transfer sizes
	// of this launch. Data declared Resident must not be counted again.
	InBytes, OutBytes int64
	// Args are the real arguments (scalars and *interp.Array) the compiled
	// kernel executes on at verification scale; ignored unless the cluster
	// runs with Verify.
	Args []any
	// Buffers declares the launch's shared-virtual-memory accesses. Under
	// the SVM transport each access is serviced through the node's coherence
	// protocol (faults become demand page migrations the kernel waits on);
	// under the explicit transport the declared bytes are billed as bulk
	// copies folded into InBytes/OutBytes, so one program text runs — and
	// can be compared — on both transports.
	Buffers []BufferAccess
	// Resident declares device-resident input data (the paper's "device
	// copies" optimization, Sec. II-C.1, in place of its getDevice()/copy()
	// handle): the named buffer is transferred to the chosen device only
	// when that device has not yet seen this Version. Iterative applications
	// use it to re-ship bulk inputs once per device per iteration instead of
	// once per launch.
	Resident *Resident
	// Label annotates trace spans.
	Label string
}

// Resident identifies device-resident data. Tag names the buffer, Bytes is
// its size, Version changes whenever the host-side contents change.
type Resident struct {
	Tag     string
	Bytes   int64
	Version int
}

// Launch is a prepared kernel launch (Fig. 4: kernel.createLaunch()). It
// is also the launch's state machine: Step advances it as steps of a step
// process, and Run is Proc.StepUntil over the same steps. A Launch runs
// one launch at a time.
type Launch struct {
	k    *Kernel
	spec LaunchSpec
	step func(*simnet.Proc) bool // Step, bound once (NodeState.launches)
	next *Launch                 // NodeState.launches link

	// The launch in progress: the phase it waits in (fetched: holding a
	// foreign buffer's fetch), the device and the scheduler's estimate, the
	// kernel's cost and the bytes it moves, its device memory, the events
	// the kernel follows, the next buffer access, the event the launch ends
	// with and its modeled kernel time; err is the outcome.
	phase      launchPhase
	fetched    bool
	dev        int
	est        simnet.Duration
	cost       device.KernelCost
	in, out    int64
	buf        ocl.Buffer
	hdep, bdep ocl.Event
	access     int
	last       ocl.Event
	measured   simnet.Duration
	err        error
}

// launchPhase is the wait a launch is in.
type launchPhase uint8

const (
	launchIdle    launchPhase = iota // not started, or finished
	launchAlloc                      // waiting for device memory
	launchBuffers                    // held by a declared SVM access
	launchWait                       // waiting for the launch's last command
)

// NewLaunch prepares a launch.
func (k *Kernel) NewLaunch(spec LaunchSpec) *Launch {
	l := &Launch{}
	l.Prepare(k, spec)
	return l
}

// Prepare makes l a launch of kernel k with spec, as NewLaunch does, so a
// step process can reuse one Launch for all its launches. l must not be in
// progress.
func (l *Launch) Prepare(k *Kernel, spec LaunchSpec) {
	if l.phase != launchIdle {
		panic("core: Prepare of a launch in progress")
	}
	if spec.Label == "" {
		spec.Label = k.name
	}
	*l = Launch{k: k, spec: spec}
}

// Run executes the full launch cycle, blocking the calling frame in virtual
// time: pick a device through the scheduler, allocate device memory,
// service the declared SVM accesses, then drive the device through its
// command queues — enqueue the resident transfer when due, the input
// transfer, the kernel and the output transfer with event dependencies and
// wait only on the last event. Launches of at least streamThreshold bytes
// run as a double-buffered pipeline of passes so transfers overlap compute
// within the launch. With Verify enabled it additionally executes the
// compiled kernel on the supplied Args, so results are real and checkable.
// Run is Proc.StepUntil over Step, on a Launch the node pools, so l need
// not reach the heap and a launch made per call allocates nothing.
//
// Errors (bad sizes, unknown parameters, a launch larger than device
// memory) are returned to the caller, whose catch branch runs the CPU
// fallback (Fig. 4).
func (l *Launch) Run(ctx *satin.Context) error {
	ns := l.k.ns
	r := ns.launches
	if r == nil {
		r = &Launch{}
		r.step = r.Step
	}
	ns.launches = r.next
	r.k = l.k // the rest is as finish or a failed start left it
	r.spec = l.spec
	ctx.Proc().StepUntil(r.step)
	r.spec = LaunchSpec{} // the pool keeps none of the caller's data alive
	r.next, ns.launches = ns.launches, r
	l.err = r.err
	return l.err
}

// Step runs the launch as steps of a step process p (see
// simnet.Proc.StepUntil): the call that finds the launch idle starts it,
// and each later call continues it from the wake p armed. Step returns
// true while the launch waits, with p's next wake armed, and false once it
// has finished, Err then holding what Run would have returned.
func (l *Launch) Step(p *simnet.Proc) bool {
	ns := l.k.ns
	for {
		switch l.phase {
		case launchIdle:
			if l.err = l.start(); l.err != nil {
				return false
			}
			l.phase = launchAlloc
		case launchAlloc:
			if ok, err := ns.Devices[l.dev].AllocStep(p, &l.buf, l.in+l.out); err != nil {
				panic(err) // start checked the sizes
			} else if !ok {
				return true
			}
			if r := l.spec.Resident; r != nil {
				var label string
				if ns.Devices[l.dev].Tracing() {
					label = l.spec.Label + ":" + r.Tag
				}
				l.hdep, _ = ns.stageResident(l.dev, r.Tag, r.Version, r.Bytes, label)
			}
			l.phase = launchBuffers
		case launchBuffers:
			if ns.svmEnabled() && l.acquire(p) {
				return true
			}
			l.enqueue()
			l.phase = launchWait
		case launchWait:
			if !l.last.Await(p) {
				return true
			}
			l.finish()
			return false
		}
	}
}

// Err reports the outcome of the last finished launch.
func (l *Launch) Err() error { return l.err }

// start checks the launch's sizes and buffer accesses, picks its device
// and prices its kernel; an error (a negative size, a buffer access with
// no Read or Write mode or with a range outside its buffer, an unknown
// parameter, a launch that can never fit the device) ends it.
func (l *Launch) start() error {
	if l.spec.InBytes < 0 || l.spec.OutBytes < 0 {
		return fmt.Errorf("core: launch %s: negative transfer size (in %d, out %d bytes)", l.spec.Label, l.spec.InBytes, l.spec.OutBytes)
	}
	for i, a := range l.spec.Buffers {
		if a.Mode&svm.ReadWrite == 0 {
			return fmt.Errorf("core: launch %s: buffer access %d has no Read or Write mode", l.spec.Label, i)
		}
		if err := a.Buf.Check(a.Ranges); err != nil {
			return fmt.Errorf("core: launch %s: %w", l.spec.Label, err)
		}
	}
	ns := l.k.ns
	l.dev, l.est = ns.Sched.Pick(l.k.name)
	dev := ns.Devices[l.dev]
	compiled := l.k.compiled[l.dev]

	cost, err := ns.kernelCost(l.dev, compiled, l.spec.Params)
	if err != nil {
		ns.Sched.Done(l.k.name, l.dev, l.est, 0)
		return err
	}
	l.cost = cost

	in, out := l.spec.InBytes, l.spec.OutBytes
	if !ns.svmEnabled() {
		// Explicit transport: declared SVM accesses are billed as bulk
		// copies — read bytes ride the input transfer, written bytes the
		// output drain — so one program text runs on both transports.
		for _, a := range l.spec.Buffers {
			n := a.Buf.Bytes(a.Ranges)
			if a.Mode&svm.Read != 0 {
				in += n
			}
			if a.Mode&svm.Write != 0 {
				out += n
			}
		}
	}
	l.in, l.out = in, out

	// Cashmere manages device memory automatically (Sec. II-C.3): if the
	// launch fits the device at all, wait for concurrent launches to release
	// their buffers; only a launch that can never fit raises the exception
	// that sends the caller to its CPU fallback (Fig. 4).
	if mem := dev.Spec().GlobalMem; in > mem || out > mem-in {
		ns.Sched.Done(l.k.name, l.dev, l.est, 0)
		ns.cpuFallbacks++
		return fmt.Errorf("core: launch needs %d bytes, device %s has %d", in+out, dev.Name(), mem)
	}
	return nil
}

// acquire services the declared buffer accesses left, in order, through
// the node's coherence protocol, and reports true while p is held for one
// (its messages, or a foreign buffer's network fetch, which precedes its
// staging). The kernel gates on the last migration into the device: all
// of them ride its in-order H2D queue.
func (l *Launch) acquire(p *simnet.Proc) bool {
	sp := l.k.ns.Space
	for l.access < len(l.spec.Buffers) {
		a := &l.spec.Buffers[l.access]
		ev, hold := ocl.Event{}, simnet.Duration(-1)
		switch {
		case a.Buf.Space() == sp:
			ev, hold = sp.Acquire(a.Buf, l.dev, a.Mode, a.Ranges)
		case !l.fetched:
			hold, l.fetched = sp.Fetch(a.Buf, a.Mode, a.Ranges), true
		default:
			ev, l.fetched = sp.Stage(a.Buf, l.dev, a.Mode, a.Ranges), false
		}
		if !l.fetched {
			l.access++
		}
		if !ev.Done() {
			l.bdep = ev
		}
		if hold >= 0 {
			p.Arm(hold)
			return true
		}
	}
	return false
}

// enqueue drives the device through its command queues once the launch's
// memory is allocated and its buffer accesses serviced, and sets the event
// the launch ends with.
func (l *Launch) enqueue() {
	ns := l.k.ns
	dev := ns.Devices[l.dev]
	in, out, hdep := l.in, l.out, l.hdep

	if in+out >= streamThreshold {
		// The double-buffered pipeline stays bulk under both transports:
		// streaming already hand-places its transfers, which is exactly the
		// explicit-management work SVM exists to avoid — the crossover
		// experiment quantifies the resulting gap.
		l.last, l.measured = enqueueStream(dev, l.spec.Label, l.cost, in, out, inCorePasses(in+out), dev.Tracing(), hdep, l.bdep)
		return
	}
	if in > 0 {
		hdep = ns.stageH2D(l.dev, in, l.label(":in"), hdep)
	}
	l.last = dev.EnqueueLaunch(l.cost, l.label(""), hdep, l.bdep)
	l.measured = dev.Spec().KernelTime(l.cost)
	if out > 0 {
		l.last = ns.stageD2H(l.dev, out, l.label(":out"), l.last)
	}
}

// label is the trace label of the launch's part suffix, or "" untraced.
func (l *Launch) label(suffix string) string {
	if !l.k.ns.Devices[l.dev].Tracing() {
		return ""
	}
	return l.spec.Label + suffix
}

// finish books a launch whose last command completed, runs the kernel for
// real under Verify, and frees the launch's device memory.
func (l *Launch) finish() {
	ns := l.k.ns
	ns.Sched.Done(l.k.name, l.dev, l.est, l.measured)
	ns.flopsCharged += l.cost.Flops
	l.err = nil
	if ns.cl.cfg.Verify {
		if err := l.k.compiled[l.dev].Run(l.spec.Args...); err != nil {
			l.err = fmt.Errorf("core: verification execution failed: %w", err)
		}
	}
	l.buf.Free()
	l.hdep, l.bdep, l.last = ocl.Event{}, ocl.Event{}, ocl.Event{}
	l.access, l.phase = 0, launchIdle
}

// inCorePasses picks the pipeline depth for a large in-core launch.
func inCorePasses(total int64) int {
	p := int((total + streamChunk - 1) / streamChunk)
	if p < 2 {
		p = 2
	}
	if p > maxStreamPasses {
		p = maxStreamPasses
	}
	return p
}

// enqueueStream enqueues one in-core launch as `passes` write->launch->read
// slices over the device's in-order queues — the Sec. III-B pipeline. The
// write of pass i+1 rides the H2D queue behind the write of pass i and
// therefore overlaps kernel i; each kernel depends on its own write, each
// read on its kernel. Remainder bytes fold into the last pass so modeled
// PCIe traffic is byte-exact. Every write and kernel additionally waits on
// hdeps (the resident transfer and SVM migrations). No process is spawned
// and nothing waits: returns the last event and the summed modeled kernel
// time.
func enqueueStream(dev *ocl.Device, label string, cost device.KernelCost, inTotal, outTotal int64, passes int, tracing bool, hdeps ...ocl.Event) (ocl.Event, simnet.Duration) {
	passCost := cost
	passCost.Flops /= float64(passes)
	passCost.MemBytes /= float64(passes)
	inPass := inTotal / int64(passes)
	outPass := outTotal / int64(passes)
	kt := dev.Spec().KernelTime(passCost)

	var depbuf [1 + ocl.MaxDeps]ocl.Event
	var measured simnet.Duration
	var last ocl.Event
	for i := 0; i < passes; i++ {
		in, out := inPass, outPass
		if i == passes-1 {
			in += inTotal - inPass*int64(passes)
			out += outTotal - outPass*int64(passes)
		}
		var w ocl.Event
		if in > 0 {
			var wlabel string
			if tracing {
				wlabel = fmt.Sprintf("%s:in.%d", label, i)
			}
			w = dev.EnqueueWrite(in, wlabel, hdeps...)
		}
		var klabel string
		if tracing {
			klabel = fmt.Sprintf("%s.%d", label, i)
		}
		nd := 0
		depbuf[nd] = w
		nd++
		nd += copy(depbuf[nd:], hdeps)
		kev := dev.EnqueueLaunch(passCost, klabel, depbuf[:nd]...)
		measured += kt
		last = kev
		if out > 0 {
			var rlabel string
			if tracing {
				rlabel = fmt.Sprintf("%s:out.%d", label, i)
			}
			last = dev.EnqueueRead(out, rlabel, kev)
		}
	}
	return last, measured
}
