package serve

import (
	"fmt"
	"math/rand"
	"time"

	"cashmere/internal/ocl"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// Chaos harness: deterministic, RNG-driven fault injection against the
// serving cluster. The whole schedule is generated up front from a private
// RNG seeded by ChaosConfig.Seed — it never touches the per-simulation
// streams — and each event's effect is applied at an exact virtual time
// through partition-safe channels (link cuts via Fabric.SetLinkAt posts,
// device degradation via scheduler posts to the owning kernel, crashes via
// satin's message-based CrashAsync). Trajectories are therefore
// byte-identical at any -partitions count, which is what the CI chaos job
// enforces.
//
// Three fault kinds:
//
//   - partition: a node's links to every peer are cut for Dur; after
//     detectDelay the frontend suspends the node (aborting in-flight
//     batches onto the rest of the fleet) and resumes it detectDelay after
//     the links heal;
//   - straggler: every device of a node runs Factor× slower for Dur (the
//     ocl slowdown hook), modeling thermal throttling — the node stays in
//     rotation and simply hurts until it recovers;
//   - crash: a correlated group of nodes dies permanently (satin re-queues
//     the D&C jobs they held; the frontend re-queues their in-flight
//     batches after detectDelay). Crashed nodes never revive.

// ChaosKind is the fault class of one chaos event.
type ChaosKind int

// Fault kinds.
const (
	ChaosPartition ChaosKind = iota
	ChaosStraggler
	ChaosCrash
)

func (c ChaosKind) String() string {
	switch c {
	case ChaosStraggler:
		return "straggler"
	case ChaosCrash:
		return "crash"
	default:
		return "partition"
	}
}

// ChaosEvent is one scheduled fault.
type ChaosEvent struct {
	// At is the injection time, an offset from the start of the run.
	At simnet.Duration
	// Kind is the fault class.
	Kind ChaosKind
	// Nodes are the victims: one node for partition/straggler, the
	// correlated group for crash.
	Nodes []int
	// Dur is the fault duration (partition/straggler).
	Dur simnet.Duration
	// Factor is the straggler slowdown multiplier.
	Factor float64
}

// ChaosConfig enables the chaos harness.
type ChaosConfig struct {
	// Seed drives the private schedule RNG.
	Seed int64
	// Script, when non-empty, is the explicit fault schedule, used instead
	// of a generated one. Events must be time-sorted and name only remote
	// nodes (Run rejects any other script).
	Script []ChaosEvent
}

// The chaos harness's fixed tuning: over a 1-second horizon the generated
// schedule holds roughly four partitions, four stragglers and one
// correlated crash.
const (
	// Mean events per second of virtual time of the generated schedule.
	partitionRate = 4
	stragglerRate = 4
	crashRate     = 1
	// Fault durations of the generated schedule.
	partitionDur = simnet.Duration(30 * time.Millisecond)
	stragglerDur = simnet.Duration(80 * time.Millisecond)
	// stragglerFactor is a generated straggler's device slowdown.
	stragglerFactor = 6
	// crashGroup caps the size of a generated correlated crash (at least
	// one remote node always survives).
	crashGroup = 2
	// detectDelay models the failure detector: the lag between a fault
	// taking effect and the frontend rerouting around it.
	detectDelay = simnet.Duration(2 * time.Millisecond)
	// propDelay is the lag between the controller issuing a fault and the
	// fault taking effect; it must exceed the partitioned scheduler's
	// lookahead (the fabric's link latency) so cross-partition injection is
	// legal at any layout (Run checks).
	propDelay = simnet.Duration(time.Millisecond)
)

// checkScript rejects an explicit schedule the harness cannot apply on a
// cluster of n nodes. Node 0 hosts the frontend and every dispatcher slot,
// so a victim must be a remote node.
func (c *ChaosConfig) checkScript(n int) error {
	var last simnet.Duration
	for i, ev := range c.Script {
		switch {
		case ev.At < 0:
			return fmt.Errorf("serve: chaos event %d at negative time %v", i, ev.At)
		case ev.At < last:
			return fmt.Errorf("serve: chaos event %d at %v precedes event %d at %v; events must be time-sorted", i, ev.At, i-1, last)
		}
		last = ev.At
		switch ev.Kind {
		case ChaosPartition, ChaosStraggler:
			if len(ev.Nodes) != 1 {
				return fmt.Errorf("serve: chaos %v event %d names %d nodes, want exactly 1", ev.Kind, i, len(ev.Nodes))
			}
			if ev.Dur <= 0 {
				return fmt.Errorf("serve: chaos %v event %d has non-positive duration %v", ev.Kind, i, ev.Dur)
			}
		case ChaosCrash:
			if len(ev.Nodes) == 0 {
				return fmt.Errorf("serve: chaos crash event %d names no nodes", i)
			}
		default:
			return fmt.Errorf("serve: chaos event %d has unknown kind %d", i, int(ev.Kind))
		}
		for _, v := range ev.Nodes {
			if v < 1 || v >= n {
				return fmt.Errorf("serve: chaos %v event %d names node %d, want a remote node in [1, %d)", ev.Kind, i, v, n)
			}
		}
	}
	return nil
}

// script returns the fault schedule for a cluster of n nodes over the
// horizon: the explicit Script if set, otherwise a schedule drawn from the
// private RNG (a Poisson superposition of the three fault processes, with
// victims drawn uniformly from the live remote nodes and crash groups
// removed from the pool as they die).
func (c *ChaosConfig) script(n int, horizon simnet.Duration) []ChaosEvent {
	if len(c.Script) > 0 {
		return c.Script
	}
	if n <= 1 {
		return nil
	}
	const total = partitionRate + stragglerRate + crashRate
	rng := rand.New(rand.NewSource(c.Seed))
	alive := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		alive = append(alive, i)
	}
	var evs []ChaosEvent
	t := 0.0
	for {
		t += rng.ExpFloat64() / total * 1e9
		if t >= float64(horizon) || len(alive) == 0 {
			break
		}
		pick := rng.Float64() * total
		switch {
		case pick < partitionRate:
			v := alive[rng.Intn(len(alive))]
			evs = append(evs, ChaosEvent{
				At: simnet.Duration(t), Kind: ChaosPartition,
				Nodes: []int{v}, Dur: partitionDur,
			})
		case pick < partitionRate+stragglerRate:
			v := alive[rng.Intn(len(alive))]
			evs = append(evs, ChaosEvent{
				At: simnet.Duration(t), Kind: ChaosStraggler,
				Nodes: []int{v}, Dur: stragglerDur, Factor: stragglerFactor,
			})
		default:
			if len(alive) <= 1 {
				continue // always leave one remote node standing
			}
			g := min(crashGroup, len(alive)-1)
			var victims []int
			for len(victims) < g {
				i := rng.Intn(len(alive))
				victims = append(victims, alive[i])
				alive = append(alive[:i], alive[i+1:]...)
			}
			evs = append(evs, ChaosEvent{
				At: simnet.Duration(t), Kind: ChaosCrash, Nodes: victims,
			})
		}
	}
	return evs
}

// chaosLoop is the injection controller (runs on node 0 inside the
// simulation). It walks the schedule, applying each fault at its exact
// virtual time and scheduling the matching detector and recovery actions.
func (el *elastic) chaosLoop(ctx *satin.Context, script []ChaosEvent, devs [][]*ocl.Device) {
	f := el.f
	p := ctx.Proc()
	k := p.Kernel()
	ps := el.rt.Scheduler()
	fab := el.rt.Fabric()
	for _, ev := range script {
		if f.done.Done() {
			return
		}
		if at := simnet.Time(ev.At); at > p.Now() {
			p.HoldUntil(at)
		}
		if f.done.Done() {
			return
		}
		now := p.Now()
		switch ev.Kind {
		case ChaosPartition:
			n := ev.Nodes[0]
			if el.nodes[n].phase == phaseDead {
				continue
			}
			cut := now.Add(propDelay)
			heal := cut.Add(ev.Dur)
			for peer := 0; peer < len(el.nodes); peer++ {
				if peer == n {
					continue
				}
				fab.SetLinkAt(k, n, peer, cut, false)
				fab.SetLinkAt(k, n, peer, heal, true)
			}
			f.rec.CounterAdd(0, "serve.chaos_partition", now, 1)
			node := n
			k.CallAt(cut.Add(detectDelay), func() { el.suspend(k, node) })
			k.CallAt(heal.Add(detectDelay), func() { el.resume(k, node) })
		case ChaosStraggler:
			n := ev.Nodes[0]
			if el.nodes[n].phase == phaseDead {
				continue
			}
			start := now.Add(propDelay)
			end := start.Add(ev.Dur)
			nk := ps.KernelFor(n)
			factor := ev.Factor
			for _, d := range devs[n] {
				d := d
				ps.Post(k, nk, n, start, func() { d.SetSlowdown(factor) })
				ps.Post(k, nk, n, end, func() { d.SetSlowdown(1) })
			}
			f.rec.CounterAdd(0, "serve.chaos_straggler", now, 1)
		case ChaosCrash:
			for _, n := range ev.Nodes {
				if el.nodes[n].phase == phaseDead {
					continue
				}
				el.rt.CrashAsync(p, n)
				node := n
				k.CallAfter(detectDelay, func() { el.fail(k, node) })
				f.rec.CounterAdd(0, "serve.chaos_crash", now, 1)
			}
		}
	}
}
