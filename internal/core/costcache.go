package core

import (
	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
)

// Every MCL cost evaluation re-runs the static analysis of the kernel for
// its parameters (over the program checked once, in NewKernelSet), and every
// launch asks for one. The analysis reports which scalar parameters it read
// (codegen.Compiled.CostObserved): extents, trip counts, array dimensions,
// address coefficients. A parameter outside that set, such as the row
// offset each raytracer leaf passes, never changes the result. So NodeState
// memoizes each kernel's costs on the observed values alone: an entry holds
// the mask its evaluation returned and the launch's values, and a launch
// hits when it agrees on every masked value. The analysis consulted no other
// value, so a hit replays exactly the analysis a miss would run.

// costKey names one compiled kernel on one of the node's devices. Devices of
// one type share the Compiled (see Cluster.initialize); each keeps its own
// slot, so hits and misses count per device as when every device compiled
// its own.
type costKey struct {
	c   *codegen.Compiled
	dev int
}

// costSlot holds one compiled kernel's memoized costs on one device.
type costSlot struct {
	names   []string // the kernel's scalar int parameters; mask bit i is names[i]
	entries []costEntry
}

type costEntry struct {
	observed codegen.ParamMask
	vals     []int64 // the launch's value of every parameter in names
	cost     device.KernelCost
}

// kernelCost returns the memoized cost of running the compiled kernel on
// device dev with the given parameters. Errors are not cached: a failing
// evaluation is the cold path to a CPU fallback.
func (ns *NodeState) kernelCost(dev int, c *codegen.Compiled, params map[string]int64) (device.KernelCost, error) {
	key := costKey{c, dev}
	s := ns.costCache[key]
	if s == nil {
		s = &costSlot{names: c.ScalarParams()}
		ns.costCache[key] = s
	}
	var buf [8]int64
	vals := buf[:0]
	for _, name := range s.names {
		v, ok := params[name]
		if !ok {
			return c.Cost(params) // reports the missing parameter
		}
		vals = append(vals, v)
	}
	for _, e := range s.entries {
		if e.matches(vals) {
			ns.costHits++
			return e.cost, nil
		}
	}
	cost, observed, err := c.CostObserved(params)
	if err != nil {
		return cost, err
	}
	ns.costMisses++
	s.entries = append(s.entries, costEntry{observed: observed, vals: append([]int64(nil), vals...), cost: cost})
	return cost, nil
}

func (e *costEntry) matches(vals []int64) bool {
	for i, v := range vals {
		if e.observed.Has(i) && e.vals[i] != v {
			return false
		}
	}
	return true
}

// CostCacheStats reports memoization hits and misses for this node.
func (ns *NodeState) CostCacheStats() (hits, misses int64) {
	return ns.costHits, ns.costMisses
}
