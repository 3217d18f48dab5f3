package serve

import (
	"cashmere/internal/core"
	"cashmere/internal/network"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// Dispatch. The frontend and all its state live on node 0, and so does
// every dispatcher slot: slots pull WFQ batches from the frontend in one
// loop (dispatchLoop) and differ only in how a batch executes.
//
//   - A slot serving node 0 runs the batch in place through execBatch, on
//     node 0's device scheduler.
//   - A slot serving a remote node ships the batch as a "serve_batch"
//     message sized with the batch input bytes and waits for the reply
//     before pulling the next batch, so each slot has one batch in flight.
//     The remote node's comm loop hands the message to a pooled process
//     that runs the same execBatch on that node and replies "serve_done"
//     sized with the output bytes; latency includes both network crossings.
//
// Work reaches the other nodes' device schedulers only through the satin
// message layer, never through shared memory, so a partitioned simulation
// can spread the nodes over parallel event loops. The same protocol runs in
// every partition layout (including the single sequential kernel), which
// keeps trajectories byte-identical across -partitions values.

// kindBatch/kindDone are the satin message kinds of the protocol.
const (
	kindBatch = "serve_batch"
	kindDone  = "serve_done"
)

type batchMsg struct {
	Proxy         int // reply routing key (index into dispatch.replies)
	Tenant, Class int
	N             int64
	// Epoch is the sending slot's per-batch sequence number; the server
	// echoes it so the proxy can discard replies to batches it has already
	// settled (e.g. completed remotely after the elastic controller aborted
	// and re-queued them).
	Epoch int64
}

type batchDone struct {
	Proxy int
	OK    bool
	Epoch int64
	// Aborted marks an elastic-controller sentinel, not a server reply: the
	// slot's node left rotation with this batch in flight, so the proxy must
	// re-queue it instead of completing it.
	Aborted bool
}

// slotState is node-0 bookkeeping for one dispatcher slot serving a remote
// node, read by the elastic controller to find batches in flight to a
// departing node.
type slotState struct {
	node int
	busy bool
	seq  int64
}

// dispatch wires the frontend to the cluster's nodes. Node 0 reads
// everything; every other node only ever touches its own kernel cache.
type dispatch struct {
	fe      *Frontend
	cfg     Config
	kernels []map[string]*core.Kernel // index = node id; touched only by that node's processes
	replies []*simnet.Chan[batchDone] // index = proxy id; node-0 state
	slots   []slotState               // index = proxy id; node-0 state
}

func newDispatch(fe *Frontend, cfg Config, rt *satin.Runtime) *dispatch {
	d := &dispatch{fe: fe, cfg: cfg, kernels: make([]map[string]*core.Kernel, rt.Nodes())}
	for n := range d.kernels {
		d.kernels[n] = map[string]*core.Kernel{}
	}
	return d
}

// newProxy registers a reply channel for one dispatcher slot serving the
// given remote node and returns its id. Must be called before the
// simulation starts (node-0 state).
func (d *dispatch) newProxy(k *simnet.Kernel, node int) int {
	d.replies = append(d.replies, simnet.NewChan[batchDone](k))
	d.slots = append(d.slots, slotState{node: node})
	return len(d.replies) - 1
}

// handle is the satin message handler: it serves batch requests on remote
// nodes and routes replies back to the waiting slot on node 0.
func (d *dispatch) handle(ctx *satin.Context, m network.Message) bool {
	switch m.Kind {
	case kindBatch:
		bm := m.Payload.(batchMsg)
		kernels := d.kernels[ctx.NodeID()]
		ctx.Node().GoLocal(func(c *satin.Context) {
			class := &d.cfg.Tenants[bm.Tenant].Mix[bm.Class]
			ok := execBatch(c, kernels, class, bm.N)
			c.Runtime().Fabric().Endpoint(c.NodeID()).
				Send(c.Proc(), 0, kindDone, class.OutBytes*bm.N,
					batchDone{Proxy: bm.Proxy, OK: ok, Epoch: bm.Epoch})
		})
		return true
	case kindDone:
		bd := m.Payload.(batchDone)
		d.replies[bd.Proxy].Send(bd)
		return true
	}
	return false
}

// execBatch runs one coalesced batch of n requests of class on the calling
// process's node and reports whether it succeeded. A graph class (never
// batched, see Run) is one full-DAG run; the node caches the instantiated
// graph and its workspace across requests via GetGraph. Any other class is
// one launch with BatchParam scaled by n, through a kernel handle cached in
// kernels.
func execBatch(ctx *satin.Context, kernels map[string]*core.Kernel, class *JobClass, n int64) bool {
	if class.Graph != nil {
		return core.RunGraph(ctx, class.Graph) == nil
	}
	kern := kernels[class.Kernel]
	if kern == nil {
		var err error
		kern, err = core.GetKernel(ctx, class.Kernel)
		if err != nil {
			return false
		}
		kernels[class.Kernel] = kern
	}
	params := class.Params
	if n > 1 {
		scaled := make(map[string]int64, len(params))
		for name, v := range params {
			scaled[name] = v
		}
		scaled[class.BatchParam] *= n
		params = scaled
	}
	err := kern.NewLaunch(core.LaunchSpec{
		Params:  params,
		InBytes: class.InBytes * n, OutBytes: class.OutBytes * n,
		Label: class.Name,
	}).Run(ctx)
	return err == nil
}

// dispatchLoop is one dispatcher slot on node 0, serving the given node
// (proxy is the slot's id for a remote node, unused for node 0). Under
// elastic control the slot parks on its node's gate while the node is out
// of rotation. A batch aborted in flight is re-queued; any other batch
// settles as completed or failed.
func (d *dispatch) dispatchLoop(ctx *satin.Context, node, proxy int) {
	f := d.fe
	p := ctx.Proc()
	k := p.Kernel()
	buf := make([]*Request, 0, f.cfg.MaxBatch)
	for {
		if f.el != nil {
			for !f.el.isActive(node) {
				if f.done != nil && f.done.Done() {
					return
				}
				f.el.nodes[node].gate.Park(p)
			}
		}
		buf = f.NextBatch(p.Now(), buf[:0])
		if len(buf) == 0 {
			if f.Drained() {
				f.checkDone(k)
				return
			}
			f.work.Park(p)
			continue
		}
		r0 := buf[0]
		t := &f.tenants[r0.Tenant]
		class := &t.spec.Mix[r0.Class]
		n := int64(len(buf))
		var ok, aborted bool
		if node == 0 {
			ok = execBatch(ctx, d.kernels[0], class, n)
		} else {
			ok, aborted = d.remote(ctx, node, proxy, r0.Tenant, r0.Class, n)
		}
		now := p.Now()
		if aborted {
			f.requeue(now, buf)
			if !f.work.Empty() {
				f.work.WakeAll(k)
			}
		} else {
			if f.rec.Enabled() {
				bsz := trace.Int64Attr("batch", n)
				for _, r := range buf {
					f.rec.Add(trace.Span{
						Node: node, Queue: "serve", Kind: KindServe,
						Label: t.spec.Name + "/" + class.Name,
						Start: r.Arrive, End: now,
						Attrs: []trace.Attr{bsz, trace.Int64Attr("wait_ns", int64(r.Issue-r.Arrive))},
					})
				}
			}
			for _, r := range buf {
				f.Complete(now, r, ok)
			}
		}
		f.checkDone(k)
	}
}

// remote executes one batch on a remote node over serve_batch/serve_done
// and waits for it to settle. An in-flight batch can be aborted by an
// elastic-controller sentinel reply; the epoch filter discards the
// server's late real reply (or a stale sentinel) so each batch settles
// exactly once.
func (d *dispatch) remote(ctx *satin.Context, node, proxy, tenant, class int, n int64) (ok, aborted bool) {
	p := ctx.Proc()
	reply := d.replies[proxy]
	slot := &d.slots[proxy]
	slot.seq++
	slot.busy = true
	ctx.Runtime().Fabric().Endpoint(0).Send(p, node, kindBatch, d.cfg.Tenants[tenant].Mix[class].InBytes*n,
		batchMsg{Proxy: proxy, Tenant: tenant, Class: class, N: n, Epoch: slot.seq})
	bd := reply.Recv(p)
	for bd.Epoch != slot.seq {
		bd = reply.Recv(p) // reply to a batch already settled; drop
	}
	slot.busy = false
	return bd.OK, bd.Aborted
}
