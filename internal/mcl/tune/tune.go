// Package tune implements the MCL auto-tuner: the automated counterpart of
// the paper's stepwise-refinement methodology. Where Sec. II-B asks the
// programmer to walk a kernel down the hardware-description hierarchy by
// hand, the tuner searches, per (kernel, device),
//
//	version level x launch geometry
//
// — every kernel version applicable to the device leaf, crossed with every
// work-group shape within the leaf's limits — and picks the configuration
// with the lowest modeled time on the device.
//
// The search is one deterministic ranking pass. Every candidate is scored
// by the geometry-aware roofline cost model (codegen.Cost x geometryEff)
// plus the feedback engine's Problem/Warning counts for its level;
// candidates dominated on all three axes are pruned. The winner is the
// lowest modeled time among the survivors and the default configuration
// (MostSpecific level, translator geometry), so tuned never regresses
// against hand-picked; ties go to the lower level name, then the smaller
// extents. The entry's service times price one request with
// device.Spec.ServiceTime, the uncontended write→launch→read time the
// serving layer bills as well.
//
// Winners persist in a byte-stable JSON Cache versioned by the kernel set's
// source fingerprint and the device spec; core consults it at
// initialization, the graph planner inherits the tuned compiled forms, and
// serve derives batching caps from the tuned per-request cost.
package tune

import (
	"fmt"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/feedback"
	"cashmere/internal/mcl/hdl"
)

// Request describes one tuning problem: a kernel set, a target device, and
// representative launch parameters and transfer sizes.
type Request struct {
	Set    *codegen.KernelSet
	Device *device.Spec
	// Params are representative scalar launch parameters (the tuner's cost
	// and geometry evaluations need realistic sizes).
	Params map[string]int64
	// InBytes/OutBytes are the representative host->device and
	// device->host transfer sizes of one launch, priced into the entry's
	// service times.
	InBytes, OutBytes int64
}

// Candidate is one evaluated configuration.
type Candidate struct {
	Level string  // kernel version level
	Local []int64 // work-group extents (nil = translate.Extents or the source's own)

	ModelNs  int64 // geometry-aware modeled kernel time
	Problems int   // feedback messages at severity Problem for the level
	Warnings int   // feedback messages at severity Warning
	Pruned   bool  // discarded by dominance pruning
}

// Entry is a tuning-cache record: the winning configuration for one
// (kernel, device) pair plus the search accounting. All fields are integral
// so the JSON serialization is byte-stable.
type Entry struct {
	Kernel string `json:"kernel"`
	Device string `json:"device"`

	Level string  `json:"level"`           // winning version level
	Local []int64 `json:"local,omitempty"` // winning work-group extents (empty = default)

	KernelNs   int64 `json:"kernel_ns"`   // modeled kernel time of the winner
	ServiceNs  int64 `json:"service_ns"`  // modeled service time of the winner
	BaselineNs int64 `json:"baseline_ns"` // modeled service time of the hand-picked default

	Evaluated int `json:"evaluated"` // candidates scored by the model
	Pruned    int `json:"pruned"`    // candidates dominated by another
}

// Compile compiles the kernel set for the leaf in the entry's configuration:
// the version at Level, the work-group extents Local when set, and the
// geometry-aware cost model every tuned configuration is scored under. The
// result is a private copy; the set's shared compile is left untouched.
func (e Entry) Compile(ks *codegen.KernelSet, leaf string, h *hdl.Hierarchy) (*codegen.Compiled, error) {
	c, err := ks.CompileAt(e.Level, leaf, h)
	if err != nil {
		return nil, err
	}
	return c.WithGeometry(e.Local)
}

// Result is a full tuning outcome: the cache entry plus every candidate, in
// deterministic search order, for reporting (mclc -tune).
type Result struct {
	Entry      Entry
	Candidates []Candidate
}

// extentMenu is the per-dimension work-group extent alphabet the geometry
// search draws from.
var extentMenu = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// geometries enumerates the candidate work-group shapes for a flat nest of
// the given dimensionality under the leaf's work-group limit. The default
// (nil = translate.Extents) is always first; order is deterministic.
func geometries(dims int, maxWG int64) [][]int64 {
	if maxWG <= 0 {
		maxWG = 1024
	}
	out := [][]int64{nil}
	switch dims {
	case 1:
		for _, e := range extentMenu {
			if e >= 8 && e <= maxWG {
				out = append(out, []int64{e})
			}
		}
	case 2:
		// Pairs with a reasonable total (at least 64 items, or the limit
		// itself when the limit is smaller) and within the limit.
		floor := int64(64)
		if maxWG < floor {
			floor = maxWG
		}
		for _, a := range extentMenu {
			for _, b := range extentMenu {
				p := a * b
				if p >= floor && p <= maxWG {
					out = append(out, []int64{a, b})
				}
			}
		}
	}
	// Nests of 3+ dimensions keep the default extents only (translate.Extents,
	// the geometry mclc -emit generates): the search space explodes and no
	// catalog kernel needs it.
	return out
}

// Tune runs the search for one request.
func Tune(req Request, h *hdl.Hierarchy) (*Result, error) {
	if req.Set == nil || req.Device == nil {
		return nil, fmt.Errorf("tune: request needs a kernel set and a device")
	}
	leafLv, err := h.Lookup(req.Device.Leaf)
	if err != nil {
		return nil, err
	}
	defaultLevel, err := h.MostSpecific(req.Set.Levels(), req.Device.Leaf)
	if err != nil {
		return nil, fmt.Errorf("tune: kernel %s on %s: %w", req.Set.Name, req.Device.Name, err)
	}

	// Enumerate and score every applicable (level, geometry) configuration
	// under the geometry-aware cost model.
	var cands []Candidate
	costs := map[int]device.KernelCost{} // candidate index -> model cost
	defaultIdx := -1
	for _, level := range req.Set.Levels() {
		if !leafLv.HasAncestor(level) {
			continue
		}
		probe, err := req.Set.CompileAt(level, req.Device.Leaf, h)
		if err != nil {
			return nil, err
		}
		problems, warnings := 0, 0
		if msgs, err := feedback.Generate(req.Set.Version(level), req.Set.Name, req.Params, leafLv, req.Device); err == nil {
			problems = feedback.Count(msgs, feedback.Problem)
			warnings = feedback.Count(msgs, feedback.Warning) - problems
		}
		for _, local := range geometries(probe.FlatLaunchDims(), probe.MaxWorkgroup()) {
			c, err := Entry{Level: level, Local: local}.Compile(req.Set, req.Device.Leaf, h)
			if err != nil {
				continue // the probe compiled this level, so the shape does not fit the nest
			}
			cost, err := c.Cost(req.Params)
			if err != nil {
				return nil, fmt.Errorf("tune: kernel %s at %s on %s: %w", req.Set.Name, level, req.Device.Name, err)
			}
			cand := Candidate{
				Level: level, Local: local,
				ModelNs:  req.Device.KernelTime(cost).Nanoseconds(),
				Problems: problems, Warnings: warnings,
			}
			if level == defaultLevel && local == nil {
				defaultIdx = len(cands)
			}
			costs[len(cands)] = cost
			cands = append(cands, cand)
		}
	}
	if len(cands) == 0 || defaultIdx < 0 {
		return nil, fmt.Errorf("tune: kernel %s has no configuration applicable to %s", req.Set.Name, req.Device.Name)
	}

	// Dominance pruning: a candidate that is no better than another on
	// modeled time, problems and warnings — and strictly worse on at least
	// one — cannot win.
	for i := range cands {
		for j := range cands {
			if i == j {
				continue
			}
			a, b := &cands[i], &cands[j]
			if b.ModelNs <= a.ModelNs && b.Problems <= a.Problems && b.Warnings <= a.Warnings &&
				(b.ModelNs < a.ModelNs || b.Problems < a.Problems || b.Warnings < a.Warnings) {
				a.Pruned = true
				break
			}
		}
	}

	// The winner is the best survivor, or the default if it ranks ahead of
	// them all, so it can never regress against the hand-picked one.
	winner := defaultIdx
	for i := range cands {
		if !cands[i].Pruned && better(&cands[i], &cands[winner]) {
			winner = i
		}
	}

	service := func(i int) int64 {
		return req.Device.ServiceTime(costs[i], req.InBytes, req.OutBytes).Nanoseconds()
	}
	w := &cands[winner]
	res := &Result{
		Entry: Entry{
			Kernel: req.Set.Name, Device: req.Device.Name,
			Level: w.Level, Local: w.Local,
			KernelNs:   w.ModelNs,
			ServiceNs:  service(winner),
			BaselineNs: service(defaultIdx),
			Evaluated:  len(cands),
			Pruned:     countPruned(cands),
		},
		Candidates: cands,
	}
	return res, nil
}

// better ranks candidates: lower modeled time wins, ties broken
// deterministically by level name then extents.
func better(a, b *Candidate) bool {
	if a.ModelNs != b.ModelNs {
		return a.ModelNs < b.ModelNs
	}
	if a.Level != b.Level {
		return a.Level < b.Level
	}
	return lexLess(a.Local, b.Local)
}

func lexLess(a, b []int64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func countPruned(cands []Candidate) int {
	n := 0
	for i := range cands {
		if cands[i].Pruned {
			n++
		}
	}
	return n
}
