package serve

import (
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// Elastic capacity control. The frontend owns a per-node phase machine on
// node 0 (all of it is node-0 state, mutated only by node-0 processes, so
// it is partition-safe by construction):
//
//	Active ──drain──▶ Draining ──grace──▶ Parked ──scale-out──▶ Active
//	Active ──partition──▶ Suspended ──heal──▶ Active
//	any ──crash──▶ Dead (terminal)
//
// Dispatcher slots of a node that is not Active park on the node's gate;
// a batch in flight when the node leaves Active is aborted through a
// sentinel reply and its requests are re-queued at the front of their
// tenant queue with the WFQ charge refunded, so a drained or failed node
// never loses a request. Node 0 hosts the frontend and is always Active.
//
// Billing: a node accrues node-seconds while provisioned — Active,
// Draining or Suspended (a partitioned node is still powered). Parked and
// Dead nodes are free. The autoscale sweep compares this integral against
// the static fleet's nodes × elapsed.

// nodePhase is the elastic state of one node.
type nodePhase uint8

const (
	phaseActive nodePhase = iota
	phaseDraining
	phaseSuspended
	phaseParked
	phaseDead
)

// nodeSlot is the frontend's elastic state for one node.
type nodeSlot struct {
	phase   nodePhase
	gate    simnet.WaitList // dispatcher slots park here while not Active
	slots   int             // dispatcher slots on this node
	onSince simnet.Time     // start of the current billed interval
	onNS    int64           // accumulated billed virtual time
}

func (ph nodePhase) billed() bool {
	return ph == phaseActive || ph == phaseDraining || ph == phaseSuspended
}

// elastic is the node-0 capacity controller shared by the autoscaler and
// the chaos harness.
type elastic struct {
	f  *Frontend
	d  *dispatch
	rt *satin.Runtime

	nodes       []nodeSlot
	activeNodes int
	totalSlots  int
	activeSlots int

	// Accounting (surfaced through ElasticReport).
	ScaleOuts    int64
	ScaleIns     int64
	DrainsForced int64
	Suspends     int64
	Crashes      int64
	Migrated     int64 // requests re-queued off drained/suspended/failed nodes
}

// newElastic builds the controller with nodes [0, initialActive) Active and
// the rest Parked; initialActive is in [1, nodes] (AutoscaleConfig.norm).
// slotsOf reports the dispatcher-slot count of a node.
func newElastic(f *Frontend, d *dispatch, rt *satin.Runtime, slotsOf func(int) int, initialActive int) *elastic {
	n := rt.Nodes()
	el := &elastic{f: f, d: d, rt: rt, nodes: make([]nodeSlot, n)}
	for i := range el.nodes {
		ns := &el.nodes[i]
		ns.slots = slotsOf(i)
		el.totalSlots += ns.slots
		if i < initialActive {
			ns.phase = phaseActive
			el.activeNodes++
			el.activeSlots += ns.slots
		} else {
			ns.phase = phaseParked
		}
	}
	f.el = el
	return el
}

// isActive gates dispatcher slots.
func (el *elastic) isActive(n int) bool { return el.nodes[n].phase == phaseActive }

// transition moves node n to phase to, maintaining active-slot counts and
// the node-seconds integral.
func (el *elastic) transition(now simnet.Time, n int, to nodePhase) {
	ns := &el.nodes[n]
	from := ns.phase
	if from == to {
		return
	}
	if from == phaseActive {
		el.activeNodes--
		el.activeSlots -= ns.slots
	}
	if to == phaseActive {
		el.activeNodes++
		el.activeSlots += ns.slots
	}
	if from.billed() && !to.billed() {
		ns.onNS += int64(now - ns.onSince)
	}
	if !from.billed() && to.billed() {
		ns.onSince = now
	}
	ns.phase = to
}

// nodeSeconds reports the provisioned node-time integral at time end.
func (el *elastic) nodeSeconds(end simnet.Time) float64 {
	var tot int64
	for i := range el.nodes {
		ns := &el.nodes[i]
		tot += ns.onNS
		if ns.phase.billed() {
			tot += int64(end - ns.onSince)
		}
	}
	return float64(tot) / 1e9
}

// scaleHint stretches a queue-overload retry-after hint by the fraction of
// dispatcher slots currently active: with half the fleet draining or down,
// the backlog drains half as fast, so clients should back off twice as
// long (capped like the throttle hint).
func (el *elastic) scaleHint(h simnet.Duration) simnet.Duration {
	if el.activeSlots >= el.totalSlots {
		return h
	}
	if el.activeSlots <= 0 {
		return maxRetryAfter
	}
	scaled := simnet.Duration(float64(h) * float64(el.totalSlots) / float64(el.activeSlots))
	if scaled > maxRetryAfter {
		scaled = maxRetryAfter
	}
	return scaled
}

// abortBusy sends an abort sentinel to every dispatcher slot of node n with
// a batch in flight, carrying the batch's epoch so the slot can match it
// against the send (stale sentinels and stale real replies are both dropped
// by the epoch filter). Returns the number of aborted slots.
func (el *elastic) abortBusy(n int) int {
	forced := 0
	for i := range el.d.slots {
		s := &el.d.slots[i]
		if s.node == n && s.busy {
			el.d.replies[i].Send(batchDone{Proxy: i, Aborted: true, Epoch: s.seq})
			forced++
		}
	}
	return forced
}

// activate brings a Parked node back into rotation (scale-out or chaos
// heal) and wakes its gated dispatcher slots.
func (el *elastic) activate(k *simnet.Kernel, now simnet.Time, n int) {
	el.transition(now, n, phaseActive)
	el.nodes[n].gate.WakeAll(k)
}

// beginDrain starts decommissioning node n: its slots stop pulling new
// batches, satin migrates its queued D&C work home, and after
// AutoscaleDrainGrace any batch still in flight is aborted and re-queued.
// Must run on a node-0 process.
func (el *elastic) beginDrain(p *simnet.Proc, now simnet.Time, n int) {
	el.transition(now, n, phaseDraining)
	el.ScaleIns++
	el.f.rec.CounterAdd(0, "serve.scale_in", now, 1)
	el.rt.DrainAsync(p, n)
	k := p.Kernel()
	k.CallAfter(AutoscaleDrainGrace, func() { el.finishDrain(k, n) })
}

// finishDrain parks a draining node at the end of its grace period,
// forcing any still-running batch to abort and re-queue.
func (el *elastic) finishDrain(k *simnet.Kernel, n int) {
	if el.nodes[n].phase != phaseDraining {
		return // crashed or suspended meanwhile
	}
	now := k.Now()
	if el.abortBusy(n) > 0 {
		el.DrainsForced++
		el.f.rec.CounterAdd(0, "serve.drains_forced", now, 1)
	}
	el.transition(now, n, phaseParked)
}

// suspend takes an Active node out of rotation after the failure detector
// notices a network partition; in-flight batches are aborted so their
// requests re-dispatch to reachable nodes.
func (el *elastic) suspend(k *simnet.Kernel, n int) {
	if el.nodes[n].phase != phaseActive {
		return
	}
	now := k.Now()
	el.abortBusy(n)
	el.transition(now, n, phaseSuspended)
	el.Suspends++
	el.f.rec.CounterAdd(0, "serve.suspends", now, 1)
}

// resume returns a Suspended node to rotation once its links heal.
func (el *elastic) resume(k *simnet.Kernel, n int) {
	if el.nodes[n].phase != phaseSuspended {
		return
	}
	el.activate(k, k.Now(), n)
}

// fail marks a node Dead after the failure detector confirms a crash;
// in-flight batches are aborted and re-queued. Terminal.
func (el *elastic) fail(k *simnet.Kernel, n int) {
	if el.nodes[n].phase == phaseDead {
		return
	}
	now := k.Now()
	el.abortBusy(n)
	el.transition(now, n, phaseDead)
	el.Crashes++
	el.f.rec.CounterAdd(0, "serve.node_failed", now, 1)
}

// wakeGates wakes every gated dispatcher slot (called when the experiment
// completes so parked slots observe done and exit).
func (el *elastic) wakeGates(k *simnet.Kernel) {
	for i := range el.nodes {
		el.nodes[i].gate.WakeAll(k)
	}
}
