package core

import (
	"fmt"

	"cashmere/internal/device"
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
	ns   *NodeState
	name string
}

// Name returns the kernel name.
func (k *Kernel) Name() string { return k.name }

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
// is also the launch's state machine: Run drives it blocking from a
// coroutine, Step as steps of a step process, through the same phases. A
// Launch runs one launch at a time.
type Launch struct {
	k    *Kernel
	spec LaunchSpec

	// The launch in progress: the phase it waits in, the device and the
	// scheduler's estimate, the kernel's cost and the bytes it moves, its
	// device memory, the event the launch ends with and its modeled kernel
	// time; err is the outcome.
	phase    launchPhase
	dev      int
	est      simnet.Duration
	cost     device.KernelCost
	in, out  int64
	buf      ocl.Buffer
	last     ocl.Event
	measured simnet.Duration
	err      error
}

// launchPhase is the wait a launch is in.
type launchPhase uint8

const (
	launchIdle  launchPhase = iota // not started, or finished
	launchAlloc                    // waiting for device memory
	launchWait                     // waiting for the launch's last command
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

// Steppable reports whether launches of k can run as steps (Launch.Step):
// true unless the node uses the SVM transport, whose page acquires block.
func (k *Kernel) Steppable() bool { return !k.ns.svmEnabled() }

// Run executes the full launch cycle, blocking the calling frame in virtual
// time: pick a device through the scheduler, allocate device memory, then
// drive the device through its command queues — enqueue the resident
// transfer when due, the input transfer, the kernel and the output transfer
// with event dependencies and wait only on the last event. Launches of at
// least streamThreshold bytes run as a double-buffered pipeline of passes so
// transfers overlap compute within the launch. With Verify enabled it
// additionally executes the compiled kernel on the supplied Args, so results
// are real and checkable.
//
// Errors (unknown parameters, a launch larger than device memory) are
// returned to the caller, whose catch branch runs the CPU fallback (Fig. 4).
func (l *Launch) Run(ctx *satin.Context) error {
	if l.phase != launchIdle {
		panic("core: Run of a launch in progress")
	}
	l.advance(ctx.Proc(), true)
	return l.err
}

// Step runs the launch as steps of a step process p (see
// simnet.Proc.StepUntil): the call that finds the launch idle starts it,
// and each later call continues it from the wake p armed. Step returns
// true while the launch waits, with p's next wake armed, and false once it
// has finished, Err then holding what Run would have returned. It makes
// the same waits as Run, so it produces the same events. Launches of a
// kernel that is not Steppable must use Run: Step panics on them.
func (l *Launch) Step(p *simnet.Proc) bool {
	return !l.advance(p, false)
}

// Err reports the outcome of the last finished launch.
func (l *Launch) Err() error { return l.err }

// advance moves the launch on from the end of its current wait (or starts
// it) and reports whether it finished. Blocking (block, Run) it waits in
// place at each wait and so always finishes; otherwise it arms p's wake at
// the next wait and reports false.
func (l *Launch) advance(p *simnet.Proc, block bool) bool {
	ns := l.k.ns
	for {
		switch l.phase {
		case launchIdle:
			if !block && !l.k.Steppable() {
				panic("core: Launch.Step under the SVM transport; its page acquires block, so the launch must Run")
			}
			if l.err = l.start(); l.err != nil {
				return true
			}
			l.phase = launchAlloc
		case launchAlloc:
			dev := ns.Devices[l.dev]
			var err error
			if block {
				err = dev.AllocBlocking(p, &l.buf, l.in+l.out)
			} else {
				var ok bool
				if ok, err = dev.AllocStep(p, &l.buf, l.in+l.out); !ok && err == nil {
					return false
				}
			}
			if err != nil {
				l.fail(err)
				return true
			}
			l.enqueue(p)
			l.phase = launchWait
		case launchWait:
			if block {
				l.last.Wait(p)
			} else if !l.last.Await(p) {
				return false
			}
			l.finish()
			return true
		}
	}
}

// start picks the launch's device and prices its kernel; an error (an
// unknown parameter, a launch that can never fit the device) ends the
// launch at once.
func (l *Launch) start() error {
	ns := l.k.ns
	l.dev, l.est = ns.Sched.Pick(l.k.name)
	dev := ns.Devices[l.dev]
	compiled := ns.kernels[l.k.name][l.dev]

	cost, err := ns.kernelCost(compiled, l.spec.Params)
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
			n := a.Buf.Size()
			if len(a.Ranges) > 0 {
				n = 0
				for _, r := range a.Ranges {
					n += r.Len
				}
			}
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
	if mem := dev.Spec().GlobalMem; in+out > mem {
		ns.Sched.Done(l.k.name, l.dev, l.est, 0)
		ns.cpuFallbacks++
		return fmt.Errorf("core: launch needs %d bytes, device %s has %d", in+out, dev.Name(), mem)
	}
	return nil
}

// fail ends a launch whose device memory could not be allocated.
func (l *Launch) fail(err error) {
	ns := l.k.ns
	ns.Sched.Done(l.k.name, l.dev, l.est, 0)
	ns.cpuFallbacks++
	l.err, l.phase = err, launchIdle
}

// enqueue drives the device through its command queues once the launch's
// memory is allocated, and sets the event the launch ends with. Under the
// SVM transport it first services the declared buffer accesses, which
// blocks p (only Run gets here with SVM).
func (l *Launch) enqueue(p *simnet.Proc) {
	ns := l.k.ns
	dev := ns.Devices[l.dev]
	tracing := dev.Tracing()
	in, out := l.in, l.out

	// hdep is the host->device event the kernel must follow in addition to
	// the implicit in-order queue ordering: the resident transfer, when one
	// is due or still in flight from a concurrent launch.
	var hdep ocl.Event
	if r := l.spec.Resident; r != nil {
		var label string
		if tracing {
			label = l.spec.Label + ":" + r.Tag
		}
		hdep, _ = ns.stageResident(l.dev, r.Tag, r.Version, r.Bytes, label)
	}

	// Under SVM, service every declared buffer access through the node's
	// coherence protocol; the kernel gates on the last migration into this
	// device (all acquires target the same in-order H2D queue).
	var bdep ocl.Event
	if ns.svmEnabled() {
		for _, a := range l.spec.Buffers {
			if ev := ns.Space.Acquire(p, a.Buf, l.dev, a.Mode, a.Ranges); !ev.Done() {
				bdep = ev
			}
		}
	}

	if in+out >= streamThreshold {
		// The double-buffered pipeline stays bulk under both transports:
		// streaming already hand-places its transfers, which is exactly the
		// explicit-management work SVM exists to avoid — the crossover
		// experiment quantifies the resulting gap.
		l.last, l.measured = enqueueStream(dev, l.spec.Label, l.cost, in, out, inCorePasses(in+out), tracing, hdep, bdep)
		return
	}
	if in > 0 {
		var label string
		if tracing {
			label = l.spec.Label + ":in"
		}
		hdep = ns.stageH2D(l.dev, in, label, hdep)
	}
	var klabel string
	if tracing {
		klabel = l.spec.Label
	}
	last := dev.EnqueueLaunch(l.cost, klabel, hdep, bdep)
	l.measured = dev.Spec().KernelTime(l.cost)
	if out > 0 {
		var label string
		if tracing {
			label = l.spec.Label + ":out"
		}
		last = ns.stageD2H(l.dev, out, label, last)
	}
	l.last = last
}

// finish books a launch whose last command completed, runs the kernel for
// real under Verify, and frees the launch's device memory.
func (l *Launch) finish() {
	ns := l.k.ns
	ns.Sched.Done(l.k.name, l.dev, l.est, l.measured)
	ns.flopsCharged += l.cost.Flops
	l.err = nil
	if ns.cl.cfg.Verify {
		if err := ns.kernels[l.k.name][l.dev].Run(l.spec.Args...); err != nil {
			l.err = fmt.Errorf("core: verification execution failed: %w", err)
		}
	}
	l.buf.Free()
	l.last, l.phase = ocl.Event{}, launchIdle
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
