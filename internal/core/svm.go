package core

import (
	"fmt"

	"cashmere/internal/ocl"
	"cashmere/internal/satin"
	"cashmere/internal/svm"
)

// BufferAccess declares how a launch touches one shared-virtual-memory
// buffer: the mode (svm.Read / svm.Write / svm.ReadWrite) over the given
// byte ranges (the whole buffer when Ranges is empty), each of which must
// lie inside the buffer. Under the SVM transport each access is serviced
// through the node's coherence protocol before the kernel runs; under the
// explicit transport its bytes are billed as bulk copies instead.
type BufferAccess struct {
	Buf    *svm.Buffer
	Mode   svm.Mode
	Ranges []svm.Range
}

// nodeState extracts the Cashmere per-node state from a Satin context.
func nodeState(ctx *satin.Context) (*NodeState, error) {
	ns, ok := ctx.Node().DeviceState().(*NodeState)
	if !ok {
		return nil, fmt.Errorf("core: node %d has no Cashmere state", ctx.NodeID())
	}
	return ns, nil
}

// NewSVMBuffer allocates a shared region homed on the calling node's Space.
// Works under any transport (explicit-transport runs simply never fault it).
func NewSVMBuffer(ctx *satin.Context, name string, size int64) (*svm.Buffer, error) {
	ns, err := nodeState(ctx)
	if err != nil {
		return nil, err
	}
	return ns.Space.NewBuffer(name, size)
}

// SyncSVM blocks until the host copy of b is current, migrating dirty device
// pages back over the D2H queues. A no-op when everything is already valid
// on the host — in particular under the explicit transport, where devices
// never take ownership.
func SyncSVM(ctx *satin.Context, b *svm.Buffer) {
	b.SyncHost(ctx.Proc())
}

// WriteSVM declares that the host overwrote the given ranges of b (all of it
// when none are given), invalidating device copies. The SVM-transport
// counterpart of bumping a Resident version.
func WriteSVM(ctx *satin.Context, b *svm.Buffer, ranges ...svm.Range) {
	b.HostWrite(ctx.Proc(), ranges...)
}

// svmEnabled reports whether this node services launches over SVM.
func (ns *NodeState) svmEnabled() bool { return ns.cl.cfg.Transport == TransportSVM }

// stageH2D enqueues a host-to-device input transfer through the active
// transport: one bulk copy under explicit, demand page faults under SVM.
// Queue placement and event semantics are identical either way, so graph
// plans and dependency wiring need not know the transport.
func (ns *NodeState) stageH2D(dev int, n int64, label string, deps ...ocl.Event) ocl.Event {
	if ns.svmEnabled() {
		return ns.Space.Fault(dev, n, label, true, deps...)
	}
	return ns.Devices[dev].EnqueueWrite(n, label, deps...)
}

// stageD2H is the device-to-host counterpart of stageH2D.
func (ns *NodeState) stageD2H(dev int, n int64, label string, deps ...ocl.Event) ocl.Event {
	if ns.svmEnabled() {
		return ns.Space.Fault(dev, n, label, false, deps...)
	}
	return ns.Devices[dev].EnqueueRead(n, label, deps...)
}
