package core

import (
	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
)

// Every MCL cost evaluation re-runs the static analysis of the kernel for
// its parameters (over the program checked once, in NewKernelSet).
// Iterative applications (kmeans, nbody) launch the same kernel with the
// same scalar parameters thousands of times, so NodeState memoizes Cost per
// (compiled kernel, parameter fingerprint). The fingerprint is a commutative
// sum of per-entry FNV hashes — map iteration order cannot perturb it — and
// each cache entry keeps a copy of its parameter map so a fingerprint
// collision degrades to a recompute, never to a wrong cost.

type costKey struct {
	c  *codegen.Compiled
	fp uint64
}

type costEntry struct {
	params map[string]int64
	cost   device.KernelCost
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fingerprintParams(params map[string]int64) uint64 {
	fp := uint64(len(params))
	for k, v := range params {
		h := uint64(fnvOffset)
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * fnvPrime
		}
		u := uint64(v)
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ (u >> shift & 0xff)) * fnvPrime
		}
		fp += h
	}
	return fp
}

func paramsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// kernelCost returns the memoized cost of running the compiled kernel with
// the given parameters. Errors are not cached: a failing evaluation is the
// cold path to a CPU fallback.
func (ns *NodeState) kernelCost(c *codegen.Compiled, params map[string]int64) (device.KernelCost, error) {
	key := costKey{c: c, fp: fingerprintParams(params)}
	for _, e := range ns.costCache[key] {
		if paramsEqual(e.params, params) {
			ns.costHits++
			return e.cost, nil
		}
	}
	cost, err := c.Cost(params)
	if err != nil {
		return cost, err
	}
	ns.costMisses++
	cp := make(map[string]int64, len(params))
	for k, v := range params {
		cp[k] = v
	}
	ns.costCache[key] = append(ns.costCache[key], costEntry{params: cp, cost: cost})
	return cost, nil
}

// CostCacheStats reports memoization hits and misses for this node.
func (ns *NodeState) CostCacheStats() (hits, misses int64) {
	return ns.costHits, ns.costMisses
}
