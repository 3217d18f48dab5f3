package core

import (
	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
)

// Hooks for the external test package (core_test), whose benchmarks import
// the applications and therefore cannot live in package core.

// ScaleKernel is the one-line kernel of this package's tests.
const ScaleKernel = scaleKernel

// KernelCost is the memoized cost lookup every launch goes through, on the
// node's device 0.
func (ns *NodeState) KernelCost(c *codegen.Compiled, params map[string]int64) (device.KernelCost, error) {
	return ns.kernelCost(0, c, params)
}

// Compiled returns the node's compiled versions of a registered kernel, one
// per device.
func (ns *NodeState) Compiled(name string) []*codegen.Compiled { return ns.kernels[name].compiled }

// CostCacheStats reports the node's cost-cache hits and misses.
func (ns *NodeState) CostCacheStats() (hits, misses int64) { return ns.costHits, ns.costMisses }
