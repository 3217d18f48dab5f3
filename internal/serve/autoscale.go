package serve

import (
	"fmt"
	"time"

	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// AutoscaleConfig tunes the elastic autoscaler. The controller runs on node
// 0 every AutoscaleInterval and reads two signals: the queue depth per
// active dispatcher slot and the p99 latency over the last interval (a
// windowed reading of the log-bucketed histogram, so it tracks the current
// regime rather than run-wide history). Hysteresis comes from
// consecutive-tick thresholds plus a cooldown after every action, so a
// single burst neither flaps the fleet up nor a quiet tick flaps it down.
// The Active node count never exceeds the cluster size.
type AutoscaleConfig struct {
	// Min is the floor on the Active node count, clamped to [1, nodes]
	// (node 0 never leaves rotation).
	Min int
	// Initial is the Active node count at start (0 means every node),
	// clamped to [Min, nodes]; the rest of the fleet starts Parked.
	Initial int
	// DownTicks is the number of consecutive cold intervals required
	// before a scale-in (at least 1; Run rejects less).
	DownTicks int
	// Cooldown is the minimum gap between scaling actions (Run rejects a
	// negative one).
	Cooldown simnet.Duration
}

// The autoscaler's fixed tuning.
const (
	// AutoscaleInterval is the control period, in virtual time.
	AutoscaleInterval = simnet.Duration(10 * time.Millisecond)
	// AutoscaleDrainGrace bounds a scale-in drain: batches still in flight
	// when it expires are aborted and re-queued onto the remaining fleet.
	AutoscaleDrainGrace = simnet.Duration(10 * time.Millisecond)
	// The controller scales out when queued/activeSlots exceeds
	// highQueuePerSlot or the windowed p99 exceeds p99Factor×SLO, for
	// upTicks consecutive intervals; scale-in needs queued/activeSlots below
	// lowQueuePerSlot and p99 below half that bar for DownTicks intervals.
	highQueuePerSlot = 3
	lowQueuePerSlot  = 0.5
	p99Factor        = 0.9
	upTicks          = 2
)

// DefaultAutoscale returns the controller tuning used by cashmere-serve.
func DefaultAutoscale() *AutoscaleConfig {
	return &AutoscaleConfig{Min: 1, DownTicks: 6, Cooldown: 40 * time.Millisecond}
}

// check rejects a tuning the controller cannot run.
func (a *AutoscaleConfig) check() error {
	if a.DownTicks < 1 {
		return fmt.Errorf("serve: autoscale DownTicks %d, want at least 1", a.DownTicks)
	}
	if a.Cooldown < 0 {
		return fmt.Errorf("serve: autoscale negative Cooldown %v", a.Cooldown)
	}
	return nil
}

// norm clamps the node counts to a cluster of n nodes.
func (a AutoscaleConfig) norm(n int) AutoscaleConfig {
	a.Min = min(max(a.Min, 1), n)
	if a.Initial <= 0 {
		a.Initial = n
	}
	a.Initial = min(max(a.Initial, a.Min), n)
	return a
}

// lowestParked returns the lowest-id Parked node, or -1. Scale-out prefers
// low ids and scale-in sheds high ids so the fleet contracts and expands at
// the same end — a deterministic, layout-invariant policy.
func (el *elastic) lowestParked() int {
	for i := 1; i < len(el.nodes); i++ {
		if el.nodes[i].phase == phaseParked {
			return i
		}
	}
	return -1
}

// highestActive returns the highest-id Active node other than 0, or -1.
func (el *elastic) highestActive() int {
	for i := len(el.nodes) - 1; i >= 1; i-- {
		if el.nodes[i].phase == phaseActive {
			return i
		}
	}
	return -1
}

// autoscaleLoop is the controller process (runs on node 0 inside the
// simulation; exits once the experiment drains).
func (el *elastic) autoscaleLoop(ctx *satin.Context, cfg AutoscaleConfig) {
	f := el.f
	p := ctx.Proc()
	k := p.Kernel()
	prev := f.Hist.Snapshot()
	hi := int64(float64(f.cfg.SLO) * p99Factor)
	lo := hi / 2
	var up, down int
	var lastAction simnet.Time
	acted := false
	for {
		p.Hold(AutoscaleInterval)
		if f.done.Done() {
			return
		}
		now := p.Now()
		win := f.Hist.Delta(&prev)
		prev = f.Hist.Snapshot()
		p99 := win.Quantile(0.99)
		slots := el.activeSlots
		if slots < 1 {
			slots = 1
		}
		qps := float64(f.queued) / float64(slots)
		hot := qps > highQueuePerSlot || p99 > hi
		cold := qps < lowQueuePerSlot && p99 < lo
		switch {
		case hot:
			up, down = up+1, 0
		case cold:
			up, down = 0, down+1
		default:
			up, down = 0, 0
		}
		if acted && now-lastAction < simnet.Time(cfg.Cooldown) {
			continue
		}
		if up >= upTicks && el.activeNodes < len(el.nodes) {
			if n := el.lowestParked(); n >= 0 {
				el.activate(k, now, n)
				// The node may have been satin-drained on its way out; let
				// its workers steal again.
				el.rt.UndrainAsync(p, n)
				el.ScaleOuts++
				f.rec.CounterAdd(0, "serve.scale_out", now, 1)
				lastAction, acted, up = now, true, 0
			}
		} else if down >= cfg.DownTicks && el.activeNodes > cfg.Min {
			if n := el.highestActive(); n >= 0 {
				el.beginDrain(p, now, n)
				lastAction, acted, down = now, true, 0
			}
		}
	}
}
