// Package apps implements the four applications of the paper's evaluation
// (Table II):
//
//   - raytracer — irregular, heavy computation, light communication;
//   - matmul    — regular, heavy computation, heavy communication;
//   - k-means   — iterative, moderate computation, light communication;
//   - n-body    — iterative, heavy computation, moderate communication.
//
// Every application provides: MCPL kernel sources (an unoptimized version at
// level perfect and an optimized version at level gpu), a Cashmere host
// program in the Fig. 5 style (divide across nodes, EnableManyCore, divide
// across devices, kernel leaf with CPU fallback), a plain-Satin variant with
// CPU leaves for the baseline curves, and a verification run that executes
// the kernels on real data against a Go reference.
package apps

import (
	"fmt"

	"cashmere/internal/device"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// Variant selects the execution mode of the scalability studies (Sec. IV).
type Variant int

// Variants.
const (
	// Satin runs the original Satin system: leaves compute on the CPU cores
	// of each node, eight single-threaded jobs per node.
	Satin Variant = iota
	// CashmereUnoptimized uses only the level-perfect kernels.
	CashmereUnoptimized
	// CashmereOptimized uses the most specific optimized kernels.
	CashmereOptimized
)

func (v Variant) String() string {
	switch v {
	case Satin:
		return "satin"
	case CashmereUnoptimized:
		return "cashmere-unoptimized"
	default:
		return "cashmere-optimized"
	}
}

// Result is the outcome of one application run.
type Result struct {
	Elapsed simnet.Time
	Flops   float64 // analytic flop count (paper convention)
	GFLOPS  float64
}

func finish(flops float64, t simnet.Time) Result {
	r := Result{Elapsed: t, Flops: flops}
	if t > 0 {
		r.GFLOPS = flops / t.Seconds() / 1e9
	}
	return r
}

// satinLeafEff is the fraction of a core's SIMD peak that a Satin leaf
// achieves. The original Satin runs single-threaded Java leaves: scalar
// code (no SSE, 1/4 of the lane peak) at JIT-compiled efficiency. This is
// what makes Cashmere "an order of magnitude faster" than Satin at equal
// node counts (Sec. VI compares a 186x speedup on 8 GPU nodes vs 2 Satin
// nodes for k-means).
const satinLeafEff = 0.08

// cpuCoreFlops is the modeled per-core throughput of a Satin CPU leaf: one
// core of the dual quad-core Xeon E5620 running scalar Java code.
var cpuCoreFlops = func() float64 {
	cpu := device.Catalog()["cpu"]
	return cpu.PeakSPFlops / float64(cpu.ComputeUnits) * satinLeafEff
}()

// cpuLeaf charges the modeled time of computing `flops` on one CPU core.
func cpuLeaf(ctx *satin.Context, flops float64, label string) {
	t := simnet.Duration(flops / cpuCoreFlops * 1e9)
	ctx.Compute(t, label)
}

// divide1D is the Fig. 5 skeleton over a 1-D range of equal-sized leaves:
// recursively split [lo,hi); once the chunk fits a node's many-core budget,
// enable many-core mode so further spawns become device threads; leaves run
// fn.
//
// bytes reports the modeled input/result sizes of a range job (what a thief
// must transfer).
func divide1D(ctx *satin.Context, v Variant, lo, hi, nodeChunk int,
	bytes func(lo, hi int) (in, out int64),
	leaf func(c *satin.Context, i int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if n == 1 {
		leaf(ctx, lo)
		return
	}
	// Satin has no many-core mode: its leaves are single-threaded CPU jobs
	// scheduled on the node's eight workers.
	if v != Satin && n <= nodeChunk && !ctx.ManyCore() {
		ctx.EnableManyCore()
	}
	mid := lo + n/2
	spawnRange := func(a, b int) *satin.Promise {
		desc := satin.JobDesc{}
		desc.InputBytes, desc.ResultBytes = bytes(a, b)
		if ctx.Tracing() {
			desc.Name = fmt.Sprintf("range[%d,%d)", a, b)
		}
		return ctx.Spawn(desc, func(c *satin.Context) any {
			divide1D(c, v, a, b, nodeChunk, bytes, leaf)
			return nil
		})
	}
	spawnRange(lo, mid)
	spawnRange(mid, hi)
	ctx.Sync()
}
