// Package ocl is a simulated OpenCL-style device runtime: the substrate that
// stands in for the OpenCL implementations Cashmere drives on real hardware.
//
// A Device owns three modeled facilities — a compute engine and one or two
// DMA engines (consumer Fermi boards have a single copy engine; Tesla,
// Kepler, AMD GCN and Xeon Phi have two) — plus a device-memory allocator.
// Each engine is driven through an in-order command queue: EnqueueWrite,
// EnqueueRead and EnqueueLaunch append an operation and return an Event that
// completes in virtual time via the simulation's callback heap, so no
// process is parked per operation. Events express cross-queue dependencies
// (write→launch→read chains), and because the queues are independent,
// transfers overlap kernel executions exactly as described in Sec. III-B of
// the paper ("the data transfers can be completely overlapped with kernel
// executions except for the first and last").
//
// The enqueue path is allocation-free and string-free in steady state when
// the trace recorder is nil: lane names are precomputed at NewDevice, ops
// are pooled per queue, and labels are the caller's to build only when
// Tracing reports true.
package ocl

import (
	"errors"
	"fmt"
	"time"

	"cashmere/internal/device"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// ErrOutOfMemory is returned by Alloc when the device memory is exhausted.
// Cashmere reacts to kernel-setup failures by running the leaf on the CPU
// (the catch branch of Fig. 4).
var ErrOutOfMemory = errors.New("ocl: device out of memory")

// Device is one simulated many-core device installed in a node.
type Device struct {
	k      *simnet.Kernel
	spec   *device.Spec
	nodeID int
	index  int    // device index within the node
	name   string // "k20#0", precomputed so the hot path never formats

	qKern *queue
	qH2D  *queue
	qD2H  *queue // == qH2D on single-copy-engine devices

	memUsed int64
	memWait simnet.WaitList
	rec     *trace.Recorder

	// slowdown stretches every modeled transfer and kernel duration; 1 is
	// nominal speed. Chaos experiments degrade a device (straggler
	// injection: thermal throttling, ECC retirement, a noisy PCIe lane)
	// without mutating the shared device.Spec catalog. It must only be
	// changed from the device's own kernel (use simnet.Partitioned.Post
	// from other partitions) so trajectories stay layout-invariant.
	slowdown float64

	kernelBusy  simnet.Time // accumulated kernel-execution time
	xferBusy    simnet.Time // accumulated DMA-engine transfer time
	bytesMoved  int64
	numLaunches int64

	active      bool        // any kernel or transfer recorded yet
	firstActive simnet.Time // start of the earliest kernel/transfer
	lastActive  simnet.Time // end of the latest kernel/transfer
}

// NewDevice creates a device of the given spec installed in node nodeID.
// rec may be nil to disable tracing.
func NewDevice(k *simnet.Kernel, spec *device.Spec, nodeID, index int, rec *trace.Recorder) *Device {
	d := &Device{k: k, spec: spec, nodeID: nodeID, index: index, rec: rec, slowdown: 1}
	d.name = fmt.Sprintf("%s#%d", spec.Name, index)
	d.qKern = newQueue(d, d.name+".kern", &d.kernelBusy)
	d.qH2D = newQueue(d, d.name+".xfer", &d.xferBusy)
	if spec.DMAEngines >= 2 {
		d.qD2H = newQueue(d, d.name+".xfer2", &d.xferBusy)
	} else {
		d.qD2H = d.qH2D // single copy engine: both directions contend
	}
	return d
}

// Spec returns the device model.
func (d *Device) Spec() *device.Spec { return d.spec }

// SetSlowdown sets the degradation factor applied to every subsequently
// enqueued transfer and kernel (f >= 1 slows the device down; 1 restores
// nominal speed). Operations already in the queues keep the durations they
// were enqueued with. Must run on the device's owning kernel.
func (d *Device) SetSlowdown(f float64) {
	if f < 1 {
		f = 1
	}
	d.slowdown = f
}

// Slowdown reports the current degradation factor (1 = nominal).
func (d *Device) Slowdown() float64 { return d.slowdown }

// stretch applies the degradation factor to a modeled duration.
func (d *Device) stretch(t time.Duration) time.Duration {
	if d.slowdown == 1 {
		return t
	}
	return time.Duration(float64(t) * d.slowdown)
}

// Name returns a unique name within the node, e.g. "gtx480#0".
func (d *Device) Name() string { return d.name }

// NodeID reports the node the device is installed in.
func (d *Device) NodeID() int { return d.nodeID }

// Tracing reports whether a trace recorder is attached. Callers on the hot
// path use it to skip building span labels that would be thrown away.
func (d *Device) Tracing() bool { return d.rec != nil }

// MemUsed reports the allocated device memory in bytes.
func (d *Device) MemUsed() int64 { return d.memUsed }

// MemFree reports the free device memory in bytes.
func (d *Device) MemFree() int64 { return d.spec.GlobalMem - d.memUsed }

// KernelBusy reports the total virtual time the compute engine spent
// executing kernels.
func (d *Device) KernelBusy() simnet.Duration { return simnet.Duration(d.kernelBusy) }

// XferBusy reports the total virtual time the DMA engines spent moving data.
func (d *Device) XferBusy() simnet.Duration { return simnet.Duration(d.xferBusy) }

// BytesMoved reports total PCIe traffic in both directions.
func (d *Device) BytesMoved() int64 { return d.bytesMoved }

// Launches reports the number of kernel launches.
func (d *Device) Launches() int64 { return d.numLaunches }

// ActiveWindow reports the interval from the start of the device's first
// kernel or transfer to the end of its last one. ok is false when the device
// was never used.
func (d *Device) ActiveWindow() (from, to simnet.Time, ok bool) {
	return d.firstActive, d.lastActive, d.active
}

// OverlapLowerBound reports a lower bound on the virtual time during which a
// data transfer overlapped a kernel execution: total engine busy time in
// excess of the active window can only come from concurrency (Sec. III-B's
// "transfers can be completely overlapped with kernel executions").
func (d *Device) OverlapLowerBound() simnet.Duration {
	if !d.active {
		return 0
	}
	window := simnet.Duration(d.lastActive - d.firstActive)
	busy := simnet.Duration(d.kernelBusy + d.xferBusy)
	if busy <= window {
		return 0
	}
	return busy - window
}

func (d *Device) noteActive(start, end simnet.Time) {
	if !d.active || start < d.firstActive {
		d.firstActive = start
	}
	if !d.active || end > d.lastActive {
		d.lastActive = end
	}
	d.active = true
}

// Buffer is a region of device memory.
type Buffer struct {
	dev   *Device
	size  int64
	freed bool
}

// Size reports the buffer size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Alloc reserves size bytes of device memory.
func (d *Device) Alloc(size int64) (*Buffer, error) {
	if size < 0 {
		return nil, fmt.Errorf("ocl: negative allocation %d", size)
	}
	if d.memUsed+size > d.spec.GlobalMem {
		return nil, fmt.Errorf("%w: need %d, free %d on %s", ErrOutOfMemory, size, d.MemFree(), d.Name())
	}
	d.memUsed += size
	return &Buffer{dev: d, size: size}, nil
}

// Free releases the buffer and wakes launches blocked on device memory.
// Double frees panic: the Cashmere runtime owns buffer lifetimes and a
// double free there is a bug, not an expected error.
func (b *Buffer) Free() {
	if b.freed {
		panic("ocl: double free")
	}
	b.freed = true
	b.dev.memUsed -= b.size
	b.dev.memWait.WakeAll(b.dev.k)
}

// AllocBlocking reserves size bytes, blocking the calling process until
// concurrent launches release enough memory ("Cashmere automatically
// manages the available memory on a device", Sec. II-C.3). Requests larger
// than the device fail immediately.
func (d *Device) AllocBlocking(p *simnet.Proc, size int64) (*Buffer, error) {
	for {
		buf, err := d.Alloc(size)
		if err == nil {
			return buf, nil
		}
		if size > d.spec.GlobalMem || size < 0 {
			return nil, err
		}
		d.memWait.Park(p)
	}
}

// EnqueueWrite appends a host-to-device transfer of n bytes to the H2D
// queue. The returned Event completes when the transfer's wire time has
// elapsed behind everything already in the queue and in deps. label is only
// consulted when Tracing is true; pass "" otherwise.
func (d *Device) EnqueueWrite(n int64, label string, deps ...Event) Event {
	return d.qH2D.enqueue(trace.KindH2D, d.stretch(d.spec.TransferTime(n)), n, label, deps)
}

// EnqueueRead appends a device-to-host transfer of n bytes to the D2H queue
// (the shared DMA queue on single-copy-engine devices).
func (d *Device) EnqueueRead(n int64, label string, deps ...Event) Event {
	return d.qD2H.enqueue(trace.KindD2H, d.stretch(d.spec.TransferTime(n)), n, label, deps)
}

// PagedTransferTime reports the modeled service time of moving n bytes as
// demand-paged faults of pageSize bytes each (latency-dominated round trips,
// unlike the bandwidth-only bulk path), stretched by the device's current
// slowdown factor. SVM fault costs are billed with this, so they never
// under-bill via TransferTime.
func (d *Device) PagedTransferTime(n, pageSize int64) time.Duration {
	return d.stretch(d.spec.PagedTransferTime(n, pageSize))
}

// EnqueuePagedWrite appends a host-to-device transfer of n bytes moved as
// demand-paged faults of pageSize bytes each to the H2D queue. The operation
// occupies the DMA engine for the summed per-page round trips, so a fault
// storm contends with bulk transfers on the same engine (and with reads, on
// single-copy-engine devices).
func (d *Device) EnqueuePagedWrite(n, pageSize int64, label string, deps ...Event) Event {
	return d.qH2D.enqueue(trace.KindH2D, d.PagedTransferTime(n, pageSize), n, label, deps)
}

// EnqueuePagedRead appends a device-to-host transfer of n bytes moved as
// demand-paged faults of pageSize bytes each to the D2H queue.
func (d *Device) EnqueuePagedRead(n, pageSize int64, label string, deps ...Event) Event {
	return d.qD2H.enqueue(trace.KindD2H, d.PagedTransferTime(n, pageSize), n, label, deps)
}

// EnqueueLaunch appends a kernel execution with the given cost descriptor to
// the compute queue. The modeled execution time is d.Spec().KernelTime(cost),
// which is pure: schedulers wanting the measured kernel time compute it
// directly rather than reading it back from the Event.
func (d *Device) EnqueueLaunch(cost device.KernelCost, label string, deps ...Event) Event {
	return d.qKern.enqueue(trace.KindKernel, d.stretch(d.spec.KernelTime(cost)), 0, label, deps)
}

// Node is the set of devices installed in one compute node.
type Node struct {
	ID      int
	Devices []*Device
}

// NewNode builds a node's device set from catalog names. Unknown names
// return an error; an empty list is valid (a CPU-only Satin node).
func NewNode(k *simnet.Kernel, nodeID int, rec *trace.Recorder, deviceNames ...string) (*Node, error) {
	n := &Node{ID: nodeID}
	for i, name := range deviceNames {
		spec, err := device.Lookup(name)
		if err != nil {
			return nil, err
		}
		n.Devices = append(n.Devices, NewDevice(k, spec, nodeID, i, rec))
	}
	return n, nil
}
