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
//   - A slot serving node 0 runs the batch in place, on node 0's device
//     scheduler.
//   - A slot serving a remote node ships the batch as a "serve_batch"
//     message sized with the batch input bytes and waits for the reply
//     before pulling the next batch, so each slot has one batch in flight.
//     The remote node's comm loop hands the message to a batch server on a
//     pooled process, which runs the same launch on that node and replies
//     "serve_done" sized with the output bytes; latency includes both
//     network crossings.
//
// Slots and batch servers run as steps (simnet.Proc.StepUntil,
// satin.Node.GoLocalStep) through one batch executor, batchRun: a launch or
// a graph class's full-DAG run, on either transport. A batch waits without
// a coroutine switch and posts exactly the events the same waits written
// as blocking calls post.
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

// batchTicket is the payload of a serve_batch message and of its
// serve_done reply: the slot fills it in, the server sets OK and sends it
// back, and the proxy returns it to the slot's free list on the reply.
// Neither side touches it while the other holds it, so it crosses
// partitions without a copy; a ticket whose reply never comes (the message
// was lost) is simply not reused.
type batchTicket struct {
	Proxy         int // reply routing key (index into dispatch.replies)
	Tenant, Class int
	N             int64
	// Epoch is the sending slot's per-batch sequence number; the server
	// echoes it so the proxy can discard replies to batches it has already
	// settled (e.g. completed remotely after the elastic controller aborted
	// and re-queued them).
	Epoch int64
	OK    bool // the server's outcome
}

// batchDone is a settled batch as its slot receives it.
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
	node    int
	busy    bool
	seq     int64
	tickets []*batchTicket // free tickets, returned by replies
}

// ticket returns a free ticket of the slot.
func (st *slotState) ticket() *batchTicket {
	if n := len(st.tickets); n > 0 {
		t := st.tickets[n-1]
		st.tickets = st.tickets[:n-1]
		return t
	}
	return &batchTicket{}
}

// dispatch wires the frontend to the cluster's nodes. Node 0 reads
// everything; every other node only ever touches its own nodeDispatch.
type dispatch struct {
	fe      *Frontend
	cfg     Config
	nodes   []nodeDispatch            // index = node id; touched only by that node's processes
	replies []*simnet.Chan[batchDone] // index = proxy id; node-0 state
	slots   []slotState               // index = proxy id; node-0 state
}

// nodeDispatch is the serving state of one node: the launch parameters of
// the batch shapes it ran, and its idle batch servers.
type nodeDispatch struct {
	params  map[batchShape]map[string]int64
	servers []*batchServer
}

// batchShape keys the scaled launch parameters of a batch.
type batchShape struct {
	class *JobClass
	n     int64
}

func newDispatch(fe *Frontend, cfg Config, rt *satin.Runtime) *dispatch {
	d := &dispatch{fe: fe, cfg: cfg, nodes: make([]nodeDispatch, rt.Nodes())}
	for n := range d.nodes {
		d.nodes[n] = nodeDispatch{params: map[batchShape]map[string]int64{}}
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
		t := m.Payload.(*batchTicket)
		class := &d.cfg.Tenants[t.Tenant].Mix[t.Class]
		s := d.server(ctx)
		s.t, s.class = t, class
		s.batch.prepare(d, ctx, class, t.N)
		ctx.Node().GoLocalStep(s.step)
		return true
	case kindDone:
		t := m.Payload.(*batchTicket)
		bd := batchDone{Proxy: t.Proxy, OK: t.OK, Epoch: t.Epoch}
		st := &d.slots[t.Proxy]
		st.tickets = append(st.tickets, t)
		d.replies[t.Proxy].Send(bd)
		return true
	}
	return false
}

// spec is the launch of a coalesced batch of n requests of class on node:
// one launch with BatchParam scaled by n. Each node builds the scaled
// parameters once per batch shape and never mutates them; the kernel-cost
// cache only reads them.
func (d *dispatch) spec(node int, class *JobClass, n int64) core.LaunchSpec {
	params := class.Params
	if n > 1 {
		nd := &d.nodes[node]
		key := batchShape{class: class, n: n}
		if params = nd.params[key]; params == nil {
			params = make(map[string]int64, len(class.Params))
			for name, v := range class.Params {
				params[name] = v
			}
			params[class.BatchParam] *= n
			nd.params[key] = params
		}
	}
	return core.LaunchSpec{
		Params:  params,
		InBytes: class.InBytes * n, OutBytes: class.OutBytes * n,
		Label: class.Name,
	}
}

// batchRun is the batch executor of slots and batch servers: one
// coalesced batch run as steps, through run, the launch or the graph run
// in hand — nil when the kernel or graph lookup failed, and the batch
// fails at once.
type batchRun struct {
	launch core.Launch
	graph  core.GraphRun
	run    interface {
		Step(p *simnet.Proc) bool
		Err() error
	}
}

// prepare readies a batch of n requests of class on ctx's node. A graph
// class (never batched, see Run) is one full-DAG run; the node caches the
// instantiated graph and its workspace across requests via GetGraph. Any
// other class is one launch (see spec).
func (b *batchRun) prepare(d *dispatch, ctx *satin.Context, class *JobClass, n int64) {
	b.run = nil
	if class.Graph != nil {
		if g, err := core.GetGraph(ctx, class.Graph); err == nil {
			b.graph.Prepare(g)
			b.run = &b.graph
		}
	} else if kern, err := core.GetKernel(ctx, class.Kernel); err == nil {
		b.launch.Prepare(kern, d.spec(ctx.NodeID(), class, n))
		b.run = &b.launch
	}
}

// step advances the batch and reports whether it still waits, with p's
// next wake armed; ok reports whether the finished batch succeeded.
func (b *batchRun) step(p *simnet.Proc) bool { return b.run != nil && b.run.Step(p) }
func (b *batchRun) ok() bool                 { return b.run != nil && b.run.Err() == nil }

// batchServer serves one batch on a remote node as a step task of the
// node's pool: the batch, then the serve_done reply that carries the
// ticket home. Each node reuses its idle servers.
type batchServer struct {
	d     *dispatch
	node  int
	ep    *network.Endpoint
	step  func(*simnet.Proc) bool // run, bound once
	t     *batchTicket
	class *JobClass
	batch batchRun
	send  network.Sending
	reply bool // the batch is over and the reply is being sent
}

// server returns an idle batch server of ctx's node.
func (d *dispatch) server(ctx *satin.Context) *batchServer {
	nd := &d.nodes[ctx.NodeID()]
	if n := len(nd.servers); n > 0 {
		s := nd.servers[n-1]
		nd.servers = nd.servers[:n-1]
		return s
	}
	s := &batchServer{d: d, node: ctx.NodeID(), ep: ctx.Runtime().Fabric().Endpoint(ctx.NodeID())}
	s.step = s.run
	return s
}

func (s *batchServer) run(p *simnet.Proc) bool {
	if !s.reply {
		if s.batch.step(p) {
			return true
		}
		s.t.OK = s.batch.ok()
		s.reply = true
		if s.ep.BeginSend(p, &s.send, 0, kindDone, s.class.OutBytes*s.t.N, s.t) {
			return true
		}
	} else if !s.ep.FinishSend(p, &s.send) {
		return true
	}
	s.t, s.class, s.reply = nil, nil, false
	nd := &s.d.nodes[s.node]
	nd.servers = append(nd.servers, s)
	return false
}

// slot is one dispatcher slot's loop (dispatchLoop) as a state machine,
// stepped on the slot's process: pull a batch or wait for one (on the
// frontend's work list, or on the node's gate while the node is out of
// rotation), then run it — in place on node 0, or over serve_batch and its
// reply — and settle it.
type slot struct {
	d     *dispatch
	ctx   *satin.Context
	ep    *network.Endpoint // node 0's
	node  int               // the node the slot serves
	proxy int               // the slot's id, for a remote node

	phase       slotPhase
	buf         []*Request // the batch in hand
	class       *JobClass
	n           int64
	ok, aborted bool
	batch       batchRun        // node 0: the batch run in place
	send        network.Sending // remote: the serve_batch message
}

// slotPhase is where a slot resumes at its next step.
type slotPhase uint8

const (
	slotPull  slotPhase = iota // take the next batch, or wait for one
	slotBatch                  // node 0: the batch runs
	slotSend                   // remote: serve_batch is being sent
	slotReply                  // remote: waiting for the batch's reply
)

// dispatchLoop is one dispatcher slot on node 0, serving the given node
// (proxy is the slot's id for a remote node, unused for node 0). The slot
// starts through GoOn like any node-0 frame and then runs as steps of its
// process (slot.run) until the frontend has drained. Under elastic control
// the slot waits on its node's gate while the node is out of rotation. A
// batch aborted in flight is re-queued; any other batch settles as
// completed or failed.
func (d *dispatch) dispatchLoop(ctx *satin.Context, node, proxy int) {
	s := &slot{d: d, ctx: ctx, ep: ctx.Runtime().Fabric().Endpoint(0), node: node, proxy: proxy, buf: make([]*Request, 0, d.fe.cfg.MaxBatch)}
	ctx.Proc().StepUntil(s.run)
}

// run is the slot's step. The remote protocol's epoch filter drops a reply
// to a batch the slot already settled (a late server reply after an
// elastic abort, or a stale abort sentinel), so each batch settles exactly
// once.
func (s *slot) run(p *simnet.Proc) bool {
	d, f := s.d, s.d.fe
	for {
		switch s.phase {
		case slotPull:
			if f.el != nil && !f.el.isActive(s.node) {
				if f.done != nil && f.done.Done() {
					return false
				}
				f.el.nodes[s.node].gate.Arm(p)
				return true
			}
			s.buf = f.NextBatch(p.Now(), s.buf[:0])
			if len(s.buf) == 0 {
				if f.Drained() {
					f.checkDone(p.Kernel())
					return false
				}
				f.work.Arm(p)
				return true
			}
			r0 := s.buf[0]
			s.class = &f.tenants[r0.Tenant].spec.Mix[r0.Class]
			s.n = int64(len(s.buf))
			s.ok, s.aborted = false, false
			if s.node != 0 {
				if s.sendBatch(p, r0) {
					s.phase = slotSend
					return true
				}
				s.phase = slotReply
				continue
			}
			s.batch.prepare(d, s.ctx, s.class, s.n)
			s.phase = slotBatch
		case slotBatch:
			if s.batch.step(p) {
				return true
			}
			s.ok = s.batch.ok()
			s.settle(p)
		case slotSend:
			if !s.ep.FinishSend(p, &s.send) {
				return true
			}
			s.phase = slotReply
		case slotReply:
			reply := d.replies[s.proxy]
			reply.Unwait(p)
			bd, ok := reply.TryRecv()
			if !ok {
				reply.Await(p, -1)
				return true
			}
			st := &d.slots[s.proxy]
			if bd.Epoch != st.seq {
				continue // reply to a batch already settled; drop
			}
			st.busy = false
			s.ok, s.aborted = bd.OK, bd.Aborted
			s.settle(p)
		}
	}
}

// sendBatch starts shipping the batch in hand to the slot's node and
// reports whether the send is under way (false: the message was lost at
// the sender, and only an abort can settle the batch).
func (s *slot) sendBatch(p *simnet.Proc, r0 *Request) bool {
	st := &s.d.slots[s.proxy]
	st.seq++
	st.busy = true
	t := st.ticket()
	*t = batchTicket{Proxy: s.proxy, Tenant: r0.Tenant, Class: r0.Class, N: s.n, Epoch: st.seq}
	if s.ep.BeginSend(p, &s.send, s.node, kindBatch, s.class.InBytes*s.n, t) {
		return true
	}
	st.tickets = append(st.tickets, t)
	return false
}

// settle completes the batch in hand — or re-queues it, when it was
// aborted — and returns the slot to pulling.
func (s *slot) settle(p *simnet.Proc) {
	f := s.d.fe
	k := p.Kernel()
	now := p.Now()
	if s.aborted {
		f.requeue(now, s.buf)
		if !f.work.Empty() {
			f.work.WakeAll(k)
		}
	} else {
		if f.rec.Enabled() {
			t := &f.tenants[s.buf[0].Tenant]
			bsz := trace.Int64Attr("batch", s.n)
			for _, r := range s.buf {
				f.rec.Add(trace.Span{
					Node: s.node, Queue: "serve", Kind: KindServe,
					Label: t.spec.Name + "/" + s.class.Name,
					Start: r.Arrive, End: now,
					Attrs: []trace.Attr{bsz, trace.Int64Attr("wait_ns", int64(r.Issue-r.Arrive))},
				})
			}
		}
		for _, r := range s.buf {
			f.Complete(now, r, s.ok)
		}
	}
	f.checkDone(k)
	s.phase = slotPull
}
