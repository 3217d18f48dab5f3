package codegen

import (
	"cashmere/internal/device"
)

// Penalty factors for non-coalesced traffic: a strided access touches more
// memory transactions than it uses; a gathered (data-dependent) access is
// modeled as one transaction per lane.
const (
	stridedWaste  = 4.0
	gatheredWaste = 8.0
	// divergencePenalty scales how strongly data-dependent branching
	// degrades SIMD throughput.
	divergencePenalty = 0.8
	// specificityStep is the per-level efficiency loss for a kernel compiled
	// from a hardware description d levels above the device leaf: less
	// specific code misses device-specific tuning (work-group shape,
	// unrolling) even before structural optimizations.
	specificityStep = 0.05
)

// Cost converts an analysis report into the device cost descriptor used by
// the simulated OpenCL runtime. distance is the number of hierarchy levels
// between the kernel's source level and the device leaf (0 when the kernel
// was written for the leaf itself).
func Cost(r *Report, spec *device.Spec, distance int) device.KernelCost {
	mem := r.UniformBytes + r.CoalescedBytes + stridedWaste*r.StridedBytes + gatheredWaste*r.GatheredBytes

	spec0 := 1.0 - specificityStep*float64(min(distance, 3))
	ce := spec.BaseComputeEff * (1 - divergencePenalty*r.DivergentFrac()) * spec0
	if ce < 0.02 {
		ce = 0.02
	}
	be := spec.BaseBandwidthEff * spec0
	if be < 0.05 {
		be = 0.05
	}

	// A launch whose exposed parallelism cannot fill the device runs at
	// reduced occupancy (~4 waves per lane suffice to hide memory latency).
	lanes := float64(spec.ComputeUnits * spec.SIMDWidth * 4)
	if r.ThreadParallelism > 0 && r.ThreadParallelism < lanes {
		occ := r.ThreadParallelism / lanes
		if occ < 0.05 {
			occ = 0.05
		}
		ce *= occ
	}

	return device.KernelCost{
		Flops:        r.Flops,
		MemBytes:     mem,
		ComputeEff:   ce,
		BandwidthEff: be,
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// geometryEff models the efficiency of a concrete launch geometry, the term
// a Compiled.WithGeometry copy folds into the roofline efficiencies. Four
// multiplicative effects, each in (0,1]:
//
//   - lane fit: a work-group that is not a multiple of the SIMD width runs
//     its last warp/wavefront with idle lanes;
//   - work-group limit: groups beyond the leaf's limit (maxWG) cannot run
//     as one group and serialize, modeled as proportional slowdown;
//   - bounds padding: global sizes rounded up past the raw iteration bounds
//     execute masked-out work-items (e.g. 16x16 groups over 4-row tiles);
//   - compute-unit quantization: the tail wave of work-groups leaves
//     compute units idle when the group count is small relative to the CUs.
//
// The product is floored at 0.05, mirroring the occupancy floor.
func geometryEff(spec *device.Spec, maxWG int64, g Glue) float64 {
	wg := int64(1)
	for _, s := range g.LocalSize {
		wg *= s
	}
	if wg < 1 {
		return 1
	}
	eff := 1.0
	if simd := int64(spec.SIMDWidth); simd > 1 {
		rounded := (wg + simd - 1) / simd * simd
		eff *= float64(wg) / float64(rounded)
	}
	if maxWG > 0 && wg > maxWG {
		eff *= float64(maxWG) / float64(wg)
	}
	if len(g.Bounds) == len(g.GlobalSize) {
		raw, padded := int64(1), int64(1)
		for i := range g.Bounds {
			raw *= g.Bounds[i]
			padded *= g.GlobalSize[i]
		}
		if raw > 0 && padded > raw {
			eff *= float64(raw) / float64(padded)
		}
	}
	if cu := int64(spec.ComputeUnits); cu > 0 {
		groups := int64(1)
		for i := range g.GlobalSize {
			l := int64(1)
			if i < len(g.LocalSize) && g.LocalSize[i] > 0 {
				l = g.LocalSize[i]
			}
			groups *= (g.GlobalSize[i] + l - 1) / l
		}
		if groups > 0 {
			waves := (groups + cu - 1) / cu
			eff *= float64(groups) / float64(waves*cu)
		}
	}
	if eff < 0.05 {
		eff = 0.05
	}
	if eff > 1 {
		eff = 1
	}
	return eff
}
