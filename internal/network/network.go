// Package network models a cluster interconnect on top of the simnet
// discrete-event kernel. The model matches the evaluation platform of the
// Cashmere paper: the DAS-4 cluster, whose nodes communicate over QDR
// InfiniBand through a full-bisection fat tree.
//
// Every node owns an egress and an ingress link resource. A point-to-point
// transfer of s bytes holds the sender's egress link and then the receiver's
// ingress link for s/bandwidth, after a propagation plus software latency.
// This store-and-forward serialization reproduces the contention effect the
// paper highlights: once fast many-core devices raise the computation rate,
// the network becomes the bottleneck ("skewed computation/communication
// ratio"), which is exactly what limits Matrix Multiplication scaling in
// Fig. 9/10.
//
// The fabric is partition-aware: endpoints live on the simnet kernel that
// owns their node, and a cross-node transfer schedules a delivery event on
// the destination's kernel through the partitioned scheduler. The link
// propagation latency is therefore the natural conservative lookahead — no
// message can affect another node earlier than Config.Latency after it was
// sent — and New registers it with the scheduler.
package network

import (
	"fmt"
	"sync"
	"time"

	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// Config describes the fabric.
type Config struct {
	// Latency is the end-to-end small-message latency (hardware plus
	// communication-software overhead). It doubles as the fabric's
	// conservative lookahead: no cross-node interaction happens sooner.
	Latency simnet.Duration
	// Bandwidth is the per-NIC usable bandwidth in bytes/second.
	Bandwidth float64
	// PerMessageCPU is the sender/receiver-side per-message processing cost
	// (serialization in the Ibis/Satin runtime the paper builds on).
	PerMessageCPU simnet.Duration
}

// QDRInfiniBand is the DAS-4 interconnect model: ~1.9 µs MPI-level latency
// and ~3.2 GB/s usable point-to-point bandwidth, plus a per-message software
// overhead for the Java-based communication stack Satin runs on.
func QDRInfiniBand() Config {
	return Config{
		Latency:       8 * time.Microsecond,
		Bandwidth:     3.2e9,
		PerMessageCPU: 4 * time.Microsecond,
	}
}

// ControlThreshold is the message size below which a transfer is treated as
// a control message: it incurs latency and per-message CPU but does not
// occupy the link resources. This approximates packet interleaving — on a
// real fabric a 64-byte steal request is not stuck behind a multi-gigabyte
// bulk transfer, it shares the wire packet by packet.
const ControlThreshold = 4096

// Message is a payload in flight. Size is the modeled wire size in bytes;
// Payload is the in-process Go value (never serialized — this is a
// simulation, not a transport).
//
// A message is copied by value at every hop (send, arrival record,
// courier, inbox), and amd64 copies a struct of up to 64 bytes inline but
// calls runtime.duffcopy for a larger one, so the layout stays within 64
// bytes (TestMessageFitsInline): From and To are int32 node ids, a
// broadcast hop is marked by a non-zero bcStride instead of a flag, and
// there is no send timestamp — no layer reads one; a protocol that needs
// it carries it in Payload.
type Message struct {
	From    int32
	To      int32
	Kind    string
	Size    int64
	Payload any

	// Broadcast-forwarding state (receiver-driven binomial tree): the
	// receiver's rank and next stride in the tree rooted at bcRoot. A
	// point-to-point message has bcStride 0; a tree hop's is at least 2.
	bcRank, bcStride int32
	bcRoot           int32
}

// Fabric connects n nodes.
type Fabric struct {
	ps  *simnet.Partitioned
	cfg Config

	nodes []*Endpoint

	// rec, when non-nil, receives send/receive spans and per-link byte
	// counters. Nil tracing keeps the message hot path allocation-free.
	// Tracing requires a single partition (one Recorder sink).
	rec *trace.Recorder
}

// SetRecorder installs a trace recorder on the fabric (nil disables).
// Sends then record sender-side serialization spans ("net.tx" lane:
// software overhead, egress-link wait and wire time), deliveries record
// receiver-side spans ("net.rx" lane: ingress serialization), and both
// sides accumulate per-node byte counters.
func (f *Fabric) SetRecorder(rec *trace.Recorder) {
	if rec.Enabled() && f.ps.Parts() > 1 {
		panic("network: tracing requires a single partition")
	}
	f.rec = rec
}

// arrival is a pooled cross-node delivery record. Senders pop one from the
// destination endpoint's freelist (a mutex-guarded pop when the fabric
// spans more than one partition: senders may live on other partitions),
// fill it, and schedule its preallocated fn on the destination kernel; the
// fn recycles the record before delivering, so steady-state message
// traffic allocates nothing.
type arrival struct {
	e    *Endpoint
	m    Message
	wire simnet.Duration
	bulk bool
	fn   func()
	next *arrival
}

func (a *arrival) run() {
	e, m, wire, bulk := a.e, a.m, a.wire, a.bulk
	a.m = Message{}
	if e.arrLocked {
		e.arrMu.Lock()
	}
	a.next = e.arrFree
	e.arrFree = a
	if e.arrLocked {
		e.arrMu.Unlock()
	}
	if bulk {
		e.carry(m, wire)
		return
	}
	e.deliver(m)
}

// courierWork is the receive side of one bulk transfer: occupy the ingress
// link for the wire time, then deliver.
type courierWork struct {
	m    Message
	wire simnet.Duration
}

// courier is a pooled receive-side delivery process of one endpoint, a
// step process that goes round three phases: await work on ch, queue for
// the ingress link, and hold the link for the wire time before delivering
// and returning to the endpoint's free list.
type courier struct {
	e     *Endpoint
	ch    *simnet.Chan[courierWork]
	phase courierPhase
	w     courierWork // the transfer being carried
	start simnet.Time // when it was taken from ch (trace span start)
}

type courierPhase uint8

const (
	courierIdle   courierPhase = iota // awaiting work on ch
	courierQueued                     // waiting for the ingress link
	courierOnWire                     // holding the ingress link
)

func (c *courier) step(p *simnet.Proc) bool {
	for {
		switch c.phase {
		case courierIdle:
			c.ch.Unwait(p)
			w, ok := c.ch.TryRecv()
			if !ok {
				c.ch.Await(p, -1)
				return true
			}
			c.w, c.start, c.phase = w, p.Now(), courierQueued
		case courierQueued:
			if !c.e.ingress.AcquireStep(p, 1) {
				return true
			}
			p.Arm(c.w.wire)
			c.phase = courierOnWire
			return true
		case courierOnWire:
			c.e.ingress.Release(1)
			m := c.w.m
			if f := c.e.f; f.rec.Enabled() {
				f.rec.Add(trace.Span{
					Node: c.e.id, Queue: "net.rx", Kind: trace.KindRecv,
					Label: m.Kind, Start: c.start, End: p.Now(),
					Attrs: []trace.Attr{trace.Int64Attr("bytes", m.Size), trace.Int64Attr("from", int64(m.From))},
				})
			}
			c.w, c.phase = courierWork{}, courierIdle
			c.e.deliver(m)
			c.e.couriers = append(c.e.couriers, c)
		}
	}
}

// carry hands an arrived bulk message to an idle courier of this endpoint,
// spawning a new one only when all existing couriers are busy. It runs on
// the endpoint's own partition, so the courier pool needs no locking.
func (e *Endpoint) carry(m Message, wire simnet.Duration) {
	if n := len(e.couriers); n > 0 {
		c := e.couriers[n-1]
		e.couriers = e.couriers[:n-1]
		c.ch.Send(courierWork{m: m, wire: wire})
		return
	}
	c := &courier{e: e, ch: simnet.NewChan[courierWork](e.k)}
	e.courierSeq++
	e.k.SpawnStepOn(e.id, fmt.Sprintf("net.courier.%d.%d", e.id, e.courierSeq), c.step)
	c.ch.Send(courierWork{m: m, wire: wire})
}

// Endpoint is one node's attachment to the fabric. All of its mutable state
// lives on (and is only touched from) the kernel owning its node; the only
// cross-partition structure is the arrival freelist.
type Endpoint struct {
	f       *Fabric
	k       *simnet.Kernel
	id      int
	egress  *simnet.Resource
	ingress *simnet.Resource
	inbox   *simnet.Chan[Message]
	dead    bool

	// cut[peer] marks the link to that peer as severed (network-partition
	// injection): sends toward it are dropped at the NIC and in-flight
	// deliveries from it are dropped on arrival. Only the endpoint's owning
	// kernel mutates it (Fabric.SetLinkAt posts symmetric flips to both
	// ends), so chaos cuts are layout-invariant. Nil until the first cut.
	cut     []bool
	dropped int64

	// couriers is the free list of pooled receive-side processes.
	couriers   []*courier
	courierSeq int
	// senders is the free list of send machines Send runs.
	senders []*sendMachine
	// relays runs receiver-side broadcast forwarding.
	relays *simnet.ProcPool

	// arrFree is the freelist of arrival records. Senders on every node
	// pop from it, so on a fabric that spans more than one partition
	// (arrLocked) arrMu guards it; on one partition every sender runs on
	// this endpoint's kernel, and the lock is skipped.
	arrLocked bool
	arrMu     sync.Mutex
	arrFree   *arrival

	// Always-on per-link counters (plain increments, never allocate).
	// Out counters are written by the owning partition; In counters too
	// (delivery runs on the destination kernel).
	bytesOut, bytesIn int64
	msgsOut, msgsIn   int64
}

// New builds a fabric with n endpoints on a single kernel.
func New(k *simnet.Kernel, n int, cfg Config) *Fabric {
	return NewPartitioned(simnet.Single(k), n, cfg)
}

// NewPartitioned builds a fabric with n endpoints, each bound to the kernel
// that owns its node, and registers the link latency as the scheduler's
// conservative lookahead.
func NewPartitioned(ps *simnet.Partitioned, n int, cfg Config) *Fabric {
	if n <= 0 {
		panic("network: need at least one node")
	}
	if cfg.Bandwidth <= 0 {
		panic("network: bandwidth must be positive")
	}
	if cfg.Latency <= 0 && ps.Parts() > 1 {
		panic("network: partitioned fabric needs a positive latency (lookahead)")
	}
	ps.SetLookahead(cfg.Latency)
	f := &Fabric{ps: ps, cfg: cfg}
	for i := 0; i < n; i++ {
		k := ps.KernelFor(i)
		f.nodes = append(f.nodes, &Endpoint{
			f:       f,
			k:       k,
			id:      i,
			egress:  simnet.NewResource(k, fmt.Sprintf("net.egress.%d", i), 1),
			ingress: simnet.NewResource(k, fmt.Sprintf("net.ingress.%d", i), 1),
			inbox:   simnet.NewChan[Message](k),
			relays:  simnet.NewProcPool(k, fmt.Sprintf("net.bcast.relay.%d", i)),

			arrLocked: ps.Parts() > 1,
		})
	}
	return f
}

// Endpoint returns node id's endpoint.
func (f *Fabric) Endpoint(id int) *Endpoint { return f.nodes[id] }

// Size reports the number of endpoints.
func (f *Fabric) Size() int { return len(f.nodes) }

// BytesSent reports the total payload bytes injected into the fabric.
func (f *Fabric) BytesSent() int64 {
	var n int64
	for _, e := range f.nodes {
		n += e.bytesOut
	}
	return n
}

// MessagesSent reports the total number of messages injected.
func (f *Fabric) MessagesSent() int64 {
	var n int64
	for _, e := range f.nodes {
		n += e.msgsOut
	}
	return n
}

// TransferTime reports the modeled one-way time for a message of s bytes on
// an uncontended path of a fabric with this configuration: software
// overhead, egress serialization, propagation latency and ingress
// serialization.
func (c Config) TransferTime(s int64) simnet.Duration {
	wire := c.wire(s)
	return c.PerMessageCPU + wire + c.Latency + wire
}

// wire is the serialization time of s bytes on one link.
func (c Config) wire(s int64) simnet.Duration {
	return time.Duration(float64(s) / c.Bandwidth * float64(time.Second))
}

// Kill marks the endpoint dead: subsequent sends to it are dropped and sends
// from it do nothing. Used by fault-tolerance experiments.
func (e *Endpoint) Kill() { e.dead = true }

// linkDown reports whether the link between this endpoint and peer is cut.
func (e *Endpoint) linkDown(peer int) bool {
	return e.cut != nil && e.cut[peer]
}

// setLink flips the local half of the link to peer. Must run on the
// endpoint's owning kernel.
func (e *Endpoint) setLink(peer int, up bool) {
	if e.cut == nil {
		if up {
			return
		}
		e.cut = make([]bool, e.f.Size())
	}
	e.cut[peer] = !up
}

// MessagesDropped sums the per-endpoint drop counters: messages lost to
// dead endpoints and severed links. Trajectory-determined, so it is safe to
// include in byte-compared metric dumps.
func (f *Fabric) MessagesDropped() int64 {
	var n int64
	for _, e := range f.nodes {
		n += e.dropped
	}
	return n
}

// SetLinkAt schedules a symmetric state change of the a<->b link at virtual
// time t: both halves flip on their owning kernels at exactly t, so a
// partition (and its heal) lands identically in every partition layout. The
// caller's process must run on src's partition, and t must respect the
// scheduler's lookahead for cross-partition ends. Messages already past
// their send point are dropped on delivery while the receiving half is cut.
func (f *Fabric) SetLinkAt(src *simnet.Kernel, a, b int, t simnet.Time, up bool) {
	ea, eb := f.nodes[a], f.nodes[b]
	f.ps.Post(src, ea.k, a, t, func() { ea.setLink(b, up) })
	f.ps.Post(src, eb.k, b, t, func() { eb.setLink(a, up) })
}

// getArrival pops a pooled arrival record (called from the sender's
// partition, hence the lock on a partitioned fabric).
func (e *Endpoint) getArrival() *arrival {
	if e.arrLocked {
		e.arrMu.Lock()
	}
	a := e.arrFree
	if a != nil {
		e.arrFree = a.next
		a.next = nil
	}
	if e.arrLocked {
		e.arrMu.Unlock()
	}
	if a == nil {
		a = &arrival{e: e}
		a.fn = a.run
	}
	return a
}

// schedule books m's delivery at the destination at time t (on the
// destination's kernel, across partitions if needed). The delivery executes
// under the destination node's event stream: everything it triggers —
// inbox wakes, courier spawns, broadcast relays — counts on the receiving
// node's creation counter, which is what keeps trajectories independent of
// the partition layout.
func (e *Endpoint) schedule(dst *Endpoint, t simnet.Time, m Message, wire simnet.Duration, bulk bool) {
	a := dst.getArrival()
	a.m = m
	a.wire = wire
	a.bulk = bulk
	e.f.ps.Post(e.k, dst.k, dst.id, t, a.fn)
}

// Send transfers a message to node `to`, blocking the calling coroutine
// for the modeled duration (sender-side occupancy: software overhead plus
// link serialization). Delivery happens after the propagation latency; the
// receiver is not blocked until it awaits its inbox. The calling process
// must run on the sending node's partition, and not inside a step: Send
// runs the send's steps (BeginSend, FinishSend) inside Proc.StepUntil.
func (e *Endpoint) Send(p *simnet.Proc, to int, kind string, size int64, payload any) {
	e.send(p, Message{From: int32(e.id), To: int32(to), Kind: kind, Size: size, Payload: payload})
}

// Sending is a send in progress from a step process: BeginSend starts it
// and FinishSend drives it to its end. A step process keeps one and reuses
// it for each of its sends.
type Sending struct {
	m     Message
	start simnet.Time // when the send began (the trace span's start)
	phase sendPhase
}

// sendPhase is the wait a send is in.
type sendPhase uint8

const (
	sendBegun    sendPhase = iota // counted, its overhead not yet armed
	sendOverhead                  // holding the per-message software overhead
	sendQueued                    // waiting for the egress link (bulk)
	sendOnWire                    // holding the egress link for the wire time (bulk)
)

// BeginSend starts sending a message from a step process: it counts the
// message into s and arms p's wake after the per-message software
// overhead. From that wake on, the step calls FinishSend(p, s) at each
// wake until it reports true. ok is false when the message was lost at the
// sender (a dead node or a severed link); then no wake is armed and there
// is nothing to finish.
func (e *Endpoint) BeginSend(p *simnet.Proc, s *Sending, to int, kind string, size int64, payload any) (ok bool) {
	if !e.begin(s, Message{From: int32(e.id), To: int32(to), Kind: kind, Size: size, Payload: payload}) {
		return false
	}
	e.advance(p, s)
	return true
}

// FinishSend advances a send begun with BeginSend from the wake that called
// it. It reports true once the message is on its way: delivered at once
// within a node, or scheduled for delivery after the propagation latency —
// at once for a control message, after the egress link's wire time for a
// bulk one. Otherwise it arms p's next wake (the egress link's grant, then
// the end of the wire time) and reports false.
func (e *Endpoint) FinishSend(p *simnet.Proc, s *Sending) bool {
	return e.advance(p, s)
}

// begin books m against the sender and starts s on it, or drops m: a dead
// node (or one behind a severed link) cannot transmit, which is modelled
// as silent loss. The caller's process usually gets cancelled by the
// failure detector.
func (e *Endpoint) begin(s *Sending, m Message) bool {
	if e.dead || e.linkDown(int(m.To)) {
		e.dropped++
		return false
	}
	e.msgsOut++
	e.bytesOut += m.Size
	if e.f.rec.Enabled() {
		e.f.rec.CounterAdd(e.id, "net.bytes_out", e.k.Now(), m.Size)
	}
	*s = Sending{m: m, start: e.k.Now()}
	return true
}

// sendMachine is a pooled send of one endpoint: Send runs its step inside
// StepUntil. The step is bound once, so a send allocates nothing.
type sendMachine struct {
	e    *Endpoint
	s    Sending
	step func(*simnet.Proc) bool
}

func (c *sendMachine) advance(p *simnet.Proc) bool { return !c.e.advance(p, &c.s) }

// send is Send's body: m's send machine, run by coroutine p.
func (e *Endpoint) send(p *simnet.Proc, m Message) {
	var c *sendMachine
	if n := len(e.senders); n > 0 {
		c = e.senders[n-1]
		e.senders = e.senders[:n-1]
	} else {
		c = &sendMachine{e: e}
		c.step = c.advance
	}
	if e.begin(&c.s, m) {
		p.StepUntil(c.step)
	}
	e.senders = append(e.senders, c)
}

// advance moves send s on from the end of its current wait and reports
// whether the send is done: a message that holds no link is delivered or
// scheduled once the software overhead has elapsed, a bulk one after its
// wire time on the egress link. Otherwise it arms p's wake at the next
// wait and reports false. A finished send drops its payload reference.
func (e *Endpoint) advance(p *simnet.Proc, s *Sending) bool {
	for {
		switch s.phase {
		case sendBegun:
			s.phase = sendOverhead
			p.Arm(e.f.cfg.PerMessageCPU)
			return false
		case sendOverhead:
			if int(s.m.To) == e.id {
				// Intra-node delivery: only the software overhead.
				e.deliver(s.m)
			} else if s.m.Size < ControlThreshold {
				// Control lane: interleaved with bulk traffic, never
				// queued behind it.
				e.schedule(e.f.nodes[s.m.To], e.k.Now().Add(e.f.cfg.Latency+e.f.cfg.wire(s.m.Size)), s.m, 0, false)
			} else {
				s.phase = sendQueued
				continue
			}
			s.m.Payload = nil
			return true
		case sendQueued:
			if !e.egress.AcquireStep(p, 1) {
				return false
			}
			s.phase = sendOnWire
			p.Arm(e.f.cfg.wire(s.m.Size))
			return false
		case sendOnWire:
			e.egress.Release(1)
			m, start := s.m, s.start
			s.m.Payload = nil
			if e.f.rec.Enabled() {
				// Sender-side occupancy: software overhead, egress-link
				// queueing wait and wire serialization. The queueing wait
				// is the contention signal that surfaces the paper's
				// "skewed computation/communication ratio".
				e.f.rec.Add(trace.Span{
					Node: e.id, Queue: "net.tx", Kind: trace.KindSend,
					Label: m.Kind, Start: start, End: e.k.Now(),
					Attrs: []trace.Attr{trace.Int64Attr("bytes", m.Size), trace.Int64Attr("to", int64(m.To))},
				})
			}
			// Propagation and receive-side DMA proceed without occupying
			// the sender.
			e.schedule(e.f.nodes[m.To], e.k.Now().Add(e.f.cfg.Latency), m, e.f.cfg.wire(m.Size), true)
			return true
		}
	}
}

func (e *Endpoint) deliver(m Message) {
	if e.dead || (int(m.From) != e.id && e.linkDown(int(m.From))) {
		// Receive-side loss: the endpoint died or the link was cut while the
		// message was in flight.
		e.dropped++
		return
	}
	e.msgsIn++
	e.bytesIn += m.Size
	if e.f.rec.Enabled() {
		e.f.rec.CounterAdd(e.id, "net.bytes_in", e.k.Now(), m.Size)
	}
	if m.bcStride > 0 {
		// Receiver-driven forwarding: this node continues the binomial
		// tree from its own endpoint, after the message physically arrived
		// here (store-and-forward, charged to this node's links).
		rank, stride, root := int(m.bcRank), int(m.bcStride), int(m.bcRoot)
		if stride < e.f.Size() {
			e.relays.Go(func(rp *simnet.Proc) {
				e.bcastForward(rp, rank, stride, m.Kind, m.Size, m.Payload, root)
			})
		}
	}
	e.inbox.Send(m)
}

// Await arms step process p to wake on the next arrival or, when deadline
// >= 0, at deadline (see simnet.Chan.Await).
func (e *Endpoint) Await(p *simnet.Proc, deadline simnet.Time) {
	e.inbox.Await(p, deadline)
}

// Unwait withdraws p's Await after a wake (see simnet.Chan.Unwait).
func (e *Endpoint) Unwait(p *simnet.Proc) { e.inbox.Unwait(p) }

// TryRecv returns a queued message without blocking.
func (e *Endpoint) TryRecv() (Message, bool) {
	return e.inbox.TryRecv()
}

// Broadcast sends the message from this endpoint to every other live node
// using a binomial tree rooted at the sender, the standard O(log n) pattern
// used for Cashmere's master-to-slave runtime-information broadcast and for
// Satin shared-object updates. Forwarding is receiver-driven: an interior
// node relays to its subtree only after the message arrived at it, from its
// own endpoint (so every hop is charged to the links it actually crosses
// and stays within the receiving node's partition).
func (e *Endpoint) Broadcast(p *simnet.Proc, kind string, size int64, payload any) {
	if e.f.Size() <= 1 {
		return
	}
	e.bcastForward(p, 0, 1, kind, size, payload, e.id)
}

// bcastForward performs the sends of the tree node with the given rank,
// starting at the given stride, in the tree rooted at node root. Rank r
// sends to r+stride for every doubling stride with r < stride <= r+stride < n.
func (e *Endpoint) bcastForward(p *simnet.Proc, rank, stride int, kind string, size int64, payload any, root int) {
	n := e.f.Size()
	for ; stride < n; stride *= 2 {
		if rank >= stride {
			continue
		}
		peer := rank + stride
		if peer >= n {
			break
		}
		peerID := (root + peer) % n
		m := Message{
			From: int32(e.id), To: int32(peerID), Kind: kind, Size: size, Payload: payload,
			bcRank: int32(peer), bcStride: int32(stride * 2), bcRoot: int32(root),
		}
		e.send(p, m)
	}
}
