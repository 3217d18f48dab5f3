// Package tune implements the MCL auto-tuner: the automated counterpart of
// the paper's stepwise-refinement methodology. Where Sec. II-B asks the
// programmer to walk a kernel down the hardware-description hierarchy by
// hand, the tuner searches, per (kernel, device),
//
//	version level x launch geometry
//
// — every kernel version applicable to the device leaf, crossed with every
// work-group shape within the leaf's limits — and picks the configuration
// with the lowest measured service time on the simulated device.
//
// The search is deterministic and two-phased:
//
//  1. model-guided pruning: every candidate is scored by the geometry-aware
//     roofline cost model (codegen.Cost x geometryEff) plus the feedback
//     engine's Problem/Warning counts for its level; candidates dominated on
//     all three axes are discarded without measurement;
//  2. measured refinement: the surviving candidates (and always the default
//     configuration — MostSpecific level, translator geometry — so tuned
//     never regresses against hand-picked) run a write→launch→read cycle on
//     a private simulated device, and the lowest measured service time wins.
//
// Winners persist in a byte-stable JSON Cache versioned by the kernel set's
// source fingerprint and the device spec; core consults it at
// initialization, the graph planner inherits the tuned compiled forms, and
// serve derives batching caps from the tuned per-request cost.
package tune

import (
	"fmt"
	"sort"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/feedback"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/ocl"
	"cashmere/internal/simnet"
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
	// device->host transfer sizes of one launch; the measured phase charges
	// them so transfer-bound kernels are not over-tuned on kernel time.
	InBytes, OutBytes int64
	// MaxSurvivors bounds how many pruning survivors reach the measured
	// phase (<= 0 means DefaultSurvivors).
	MaxSurvivors int
}

// DefaultSurvivors is the measured-refinement budget when
// Request.MaxSurvivors is unset.
const DefaultSurvivors = 4

// Candidate is one evaluated configuration.
type Candidate struct {
	Level string  // kernel version level
	Local []int64 // work-group extents (nil = translator/source default)

	ModelNs   int64 // geometry-aware modeled kernel time
	Problems  int   // feedback messages at severity Problem for the level
	Warnings  int   // feedback messages at severity Warning
	Pruned    bool  // discarded by dominance pruning
	ServiceNs int64 // measured write+launch+read time (0 = not refined)
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
	ServiceNs  int64 `json:"service_ns"`  // measured service time of the winner
	BaselineNs int64 `json:"baseline_ns"` // measured service time of the hand-picked default

	Evaluated int `json:"evaluated"` // candidates scored by the model
	Pruned    int `json:"pruned"`    // candidates discarded without measurement
	Refined   int `json:"refined"`   // candidates measured (incl. baseline)
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
// (nil = translator choice) is always first; order is deterministic.
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
	// Nests of 3+ dimensions keep the translator default only: the search
	// space explodes and no catalog kernel needs it.
	return out
}

// Tune runs the two-phase search for one request.
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

	// Phase 1: enumerate and score every applicable (level, geometry)
	// configuration under the geometry-aware cost model.
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
		if msgs, err := feedback.Generate(req.Set.Versions[level], req.Set.Name, req.Params, leafLv, req.Device); err == nil {
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
	// one — never reaches the measured phase.
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

	// Phase 2: measure the top survivors (and always the default, so the
	// winner can never regress against the hand-picked configuration).
	maxSurv := req.MaxSurvivors
	if maxSurv <= 0 {
		maxSurv = DefaultSurvivors
	}
	order := make([]int, 0, len(cands))
	for i := range cands {
		if !cands[i].Pruned {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := &cands[order[x]], &cands[order[y]]
		if a.ModelNs != b.ModelNs {
			return a.ModelNs < b.ModelNs
		}
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		return lexLess(a.Local, b.Local)
	})
	if len(order) > maxSurv {
		order = order[:maxSurv]
	}
	measured := map[int]bool{}
	for _, i := range order {
		measured[i] = true
	}
	measured[defaultIdx] = true

	winner := -1
	for i := range cands {
		if !measured[i] {
			continue
		}
		cands[i].ServiceNs = measureService(req.Device, costs[i], req.InBytes, req.OutBytes)
		if winner < 0 || better(&cands[i], &cands[winner]) {
			winner = i
		}
	}

	w := &cands[winner]
	res := &Result{
		Entry: Entry{
			Kernel: req.Set.Name, Device: req.Device.Name,
			Level: w.Level, Local: w.Local,
			KernelNs:   w.ModelNs,
			ServiceNs:  w.ServiceNs,
			BaselineNs: cands[defaultIdx].ServiceNs,
			Evaluated:  len(cands),
			Pruned:     countPruned(cands),
			Refined:    len(measured),
		},
		Candidates: cands,
	}
	return res, nil
}

// better orders measured candidates: lower service time wins, ties broken
// deterministically by level name then extents.
func better(a, b *Candidate) bool {
	if a.ServiceNs != b.ServiceNs {
		return a.ServiceNs < b.ServiceNs
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

// measureService runs one write -> launch -> read cycle on a private
// simulated device and reports the virtual service time in nanoseconds.
// The simulation is self-contained (own kernel, fixed seed), so the
// measurement is deterministic and independent of any enclosing run.
func measureService(spec *device.Spec, cost device.KernelCost, in, out int64) int64 {
	k := simnet.NewKernel(1)
	dev := ocl.NewDevice(k, spec, 0, 0, nil)
	var ns int64
	k.Spawn("tune", func(p *simnet.Proc) {
		w := dev.EnqueueWrite(in, "tune.in")
		l := dev.EnqueueLaunch(cost, "tune.kernel", w)
		r := dev.EnqueueRead(out, "tune.out", l)
		r.Wait(p)
		ns = int64(k.Now())
	})
	k.Run(0)
	return ns
}
