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
// (Fig. 4). Out-of-core execution is a graph-planner feature — wrap the
// kernel in a one-stage GraphSpec and the planner streams it.
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

// Launch is a prepared kernel launch (Fig. 4: kernel.createLaunch()).
type Launch struct {
	k    *Kernel
	spec LaunchSpec
}

// NewLaunch prepares a launch.
func (k *Kernel) NewLaunch(spec LaunchSpec) *Launch {
	if spec.Label == "" {
		spec.Label = k.name
	}
	return &Launch{k: k, spec: spec}
}

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
	ns := l.k.ns
	p := ctx.Proc()

	devIdx, est := ns.Sched.Pick(l.k.name)
	dev := ns.Devices[devIdx]
	compiled := ns.kernels[l.k.name][devIdx]

	cost, err := ns.kernelCost(compiled, l.spec.Params)
	if err != nil {
		ns.Sched.Done(l.k.name, devIdx, est, 0)
		return err
	}

	svmT := ns.svmEnabled()
	in, out := l.spec.InBytes, l.spec.OutBytes
	if !svmT {
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

	// Cashmere manages device memory automatically (Sec. II-C.3): if the
	// launch fits the device at all, wait for concurrent launches to release
	// their buffers; only a launch that can never fit raises the exception
	// that sends the caller to its CPU fallback (Fig. 4).
	if mem := dev.Spec().GlobalMem; in+out > mem {
		ns.Sched.Done(l.k.name, devIdx, est, 0)
		ns.cpuFallbacks++
		return fmt.Errorf("core: launch needs %d bytes, device %s has %d", in+out, dev.Name(), mem)
	}
	buf, err := dev.AllocBlocking(p, in+out)
	if err != nil {
		ns.Sched.Done(l.k.name, devIdx, est, 0)
		ns.cpuFallbacks++
		return err
	}
	defer buf.Free()

	tracing := dev.Tracing()

	// hdep is the host->device event the kernel must follow in addition to
	// the implicit in-order queue ordering: the resident transfer, when one
	// is due or still in flight from a concurrent launch.
	var hdep ocl.Event
	if r := l.spec.Resident; r != nil {
		var label string
		if tracing {
			label = l.spec.Label + ":" + r.Tag
		}
		hdep, _ = ns.stageResident(devIdx, r.Tag, r.Version, r.Bytes, label)
	}

	// Under SVM, service every declared buffer access through the node's
	// coherence protocol; the kernel gates on the last migration into this
	// device (all acquires target the same in-order H2D queue).
	var bdep ocl.Event
	if svmT {
		for _, a := range l.spec.Buffers {
			if ev := ns.Space.Acquire(p, a.Buf, devIdx, a.Mode, a.Ranges); !ev.Done() {
				bdep = ev
			}
		}
	}

	var measured simnet.Duration
	if in+out >= streamThreshold {
		// The double-buffered pipeline stays bulk under both transports:
		// streaming already hand-places its transfers, which is exactly the
		// explicit-management work SVM exists to avoid — the crossover
		// experiment quantifies the resulting gap.
		var last ocl.Event
		last, measured = enqueueStream(dev, l.spec.Label, cost, in, out, inCorePasses(in+out), false, tracing, hdep, bdep)
		last.Wait(p)
	} else {
		if in > 0 {
			var label string
			if tracing {
				label = l.spec.Label + ":in"
			}
			hdep = ns.stageH2D(devIdx, in, label, hdep)
		}
		var klabel string
		if tracing {
			klabel = l.spec.Label
		}
		last := dev.EnqueueLaunch(cost, klabel, hdep, bdep)
		measured = dev.Spec().KernelTime(cost)
		if out > 0 {
			var label string
			if tracing {
				label = l.spec.Label + ":out"
			}
			last = ns.stageD2H(devIdx, out, label, last)
		}
		last.Wait(p)
	}
	ns.Sched.Done(l.k.name, devIdx, est, measured)
	ns.flopsCharged += cost.Flops

	if ns.cl.cfg.Verify {
		if err := compiled.Run(l.spec.Args...); err != nil {
			return fmt.Errorf("core: verification execution failed: %w", err)
		}
	}
	return nil
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

// enqueueStream enqueues one logical launch as `passes` write->launch->read
// slices over the device's in-order queues — the Sec. III-B pipeline. The
// write of pass i+1 rides the H2D queue behind the write of pass i and
// therefore overlaps kernel i; each kernel depends on its own write, each
// read on its kernel. Two callers use it: Launch.Run's in-core pipeline
// (chunked false: the whole working set is allocated) and a stage the graph
// planner streams out-of-core (chunked true: only two staging chunks of
// device memory, so the write of pass i additionally waits for the read of
// pass i-2 — the previous tenant of its staging chunk). Remainder bytes fold
// into the last pass so modeled PCIe traffic is byte-exact. Every write and
// kernel additionally waits on hdeps (upstream producers). No process is
// spawned and nothing waits: the caller holds the last event, so graph
// stages can chain more work behind the pipeline. Returns that event and
// the summed modeled kernel time.
func enqueueStream(dev *ocl.Device, label string, cost device.KernelCost, inTotal, outTotal int64, passes int, chunked, tracing bool, hdeps ...ocl.Event) (ocl.Event, simnet.Duration) {
	passCost := cost
	passCost.Flops /= float64(passes)
	passCost.MemBytes /= float64(passes)
	inPass := inTotal / int64(passes)
	outPass := outTotal / int64(passes)
	kt := dev.Spec().KernelTime(passCost)

	var reads [2]ocl.Event // ring of staging-chunk tenants (chunked only)
	var depbuf [1 + ocl.MaxDeps]ocl.Event
	var measured simnet.Duration
	var last ocl.Event
	for i := 0; i < passes; i++ {
		in, out := inPass, outPass
		if i == passes-1 {
			in += inTotal - inPass*int64(passes)
			out += outTotal - outPass*int64(passes)
		}
		var stage ocl.Event
		if chunked {
			stage = reads[i%2]
		}
		w := stage
		if in > 0 {
			var wlabel string
			if tracing {
				wlabel = fmt.Sprintf("%s:in.%d", label, i)
			}
			nd := 0
			depbuf[nd] = stage
			nd++
			nd += copy(depbuf[nd:], hdeps)
			w = dev.EnqueueWrite(in, wlabel, depbuf[:nd]...)
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
		r := kev
		if out > 0 {
			var rlabel string
			if tracing {
				rlabel = fmt.Sprintf("%s:out.%d", label, i)
			}
			r = dev.EnqueueRead(out, rlabel, kev)
		}
		reads[i%2] = r
		last = r
	}
	return last, measured
}
