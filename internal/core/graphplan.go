package core

import (
	"fmt"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/ocl"
	"cashmere/internal/simnet"
)

// This file compiles a GraphSpec into a per-node execution plan: a flat list
// of device-queue operations (transfers and kernel slices) with explicit
// cross-queue event dependencies. Planning happens once per
// (node, spec); Graph.Run then replays the plan through the ocl command
// queues with zero allocations.
//
// Every planning decision — stage placement, split ratios, spill — is a pure
// function of the spec, the static device models and the memoized roofline
// cost model. It never reads scheduler backlog or queue occupancy, so the
// plan (and therefore the trajectory and every metric dump) is identical at
// any -partitions count.

// gopKind is the kind of one planned operation.
type gopKind int

const (
	gopH2D    gopKind = iota // host->device transfer (conditional iff input != nil)
	gopD2H                   // device->host transfer (gather, spill, output readback)
	gopKernel                // one kernel execution (a whole stage or one slice)
)

// gop is one planned operation. deps index earlier ops in the plan whose
// events gate this one; same-queue ordering is implicit (in-order queues), so
// deps carry only cross-queue and conditional edges.
type gop struct {
	kind  gopKind
	dev   int
	bytes int64             // transfer payload (gopH2D/gopD2H)
	cost  device.KernelCost // kernel cost (gopKernel: whole-stage or slice cost)
	kt    simnet.Duration   // modeled execution time booked into the scheduler
	label string            // trace label ("" when tracing is off)
	deps  []int

	// Conditional resident transfer (external inputs): the op enqueues only
	// when the device has not seen input.Version yet; otherwise the run
	// reuses the in-flight/complete resident event and counts a hit.
	input *GraphBuffer
	rtag  string
}

// gRecord feeds one full-stage modeled time into the per-kernel scheduler
// history after each run (split slices are withheld: a slice time would
// pollute the history plain launches rely on).
type gRecord struct {
	kernel string
	dev    int
	kt     simnet.Duration
}

// gplan is the compiled schedule of one graph on one node.
type gplan struct {
	ops       []gop
	terminals []int // ops with no dependents; Run waits on these

	workspace []int64           // per-device workspace bytes (one blob, one alloc)
	book      []simnet.Duration // per-device modeled compute booked while a run is in flight
	records   []gRecord

	chainHits    int64 // input edges satisfied on-device at plan time (intermediate chaining)
	plannedBytes int64 // unconditional PCIe bytes per run
	flops        float64
	verify       []*codegen.Compiled // per stage: compiled form for Verify-mode execution
}

// gshard is one contiguous byte interval [off, off+n) of a graph buffer
// materialized on a device, produced by plan op `op`.
type gshard struct {
	dev    int
	off, n int64
	op     int
}

// gloc tracks where a buffer's bytes live while planning.
type gloc struct {
	shards    []gshard // device-resident intervals (exact cover for intermediates)
	uploads   []gshard // conditional input uploads already planned (reusable)
	hostValid bool     // a host copy exists (inputs always; spilled otherwise)
	hostOp    int      // op that produced the host copy (-1: original input data)
}

// maxGraphDeps mirrors ocl.MaxDeps: the most events one planned op may wait
// on. The planner collapses same-queue dependencies (in-order queues) and
// errors out on graphs that still exceed it.
const maxGraphDeps = 8

// depset accumulates dependency op indices with dedup and a hard cap.
type depset struct {
	idx      [maxGraphDeps]int
	n        int
	overflow bool
}

func (s *depset) add(i int) {
	for j := 0; j < s.n; j++ {
		if s.idx[j] == i {
			return
		}
	}
	if s.n == len(s.idx) {
		s.overflow = true
		return
	}
	s.idx[s.n] = i
	s.n++
}

func (s *depset) slice() []int {
	if s.n == 0 {
		return nil
	}
	out := make([]int, s.n)
	copy(out, s.idx[:s.n])
	return out
}

type gplanner struct {
	ns      *NodeState
	gs      *GraphSpec
	tracing bool

	ops  []gop
	locs []gloc

	wsPersist []int64 // resident bytes per device (live for the whole run)
	wsPeak    []int64 // peak transient bytes per device (spilled stage in/out)

	book    []simnet.Duration
	records []gRecord

	chainHits    int64
	plannedBytes int64
	flops        float64
	verify       []*codegen.Compiled
}

// planGraph compiles spec for this node. The returned Graph owns the plan
// and its (lazily allocated) device workspace.
func (ns *NodeState) planGraph(gs *GraphSpec) (*Graph, error) {
	if err := gs.Validate(); err != nil {
		return nil, err
	}
	ndev := len(ns.Devices)
	if ndev == 0 {
		return nil, fmt.Errorf("core: node %d has no many-core devices", ns.ID)
	}
	for _, s := range gs.stages {
		if _, ok := ns.kernels[s.Kernel]; !ok {
			return nil, fmt.Errorf("core: graph %s: kernel %q not registered", gs.name, s.Kernel)
		}
	}
	pl := &gplanner{
		ns: ns, gs: gs, tracing: ns.cl.rec != nil,
		locs:      make([]gloc, len(gs.bufs)),
		wsPersist: make([]int64, ndev),
		wsPeak:    make([]int64, ndev),
		book:      make([]simnet.Duration, ndev),
	}
	for i := range pl.locs {
		pl.locs[i].hostOp = -1
		pl.locs[i].hostValid = gs.bufs[i].kind == bufInput
	}
	for si := range gs.stages {
		if err := pl.planStage(si); err != nil {
			return nil, err
		}
	}

	workspace := make([]int64, ndev)
	for d := 0; d < ndev; d++ {
		workspace[d] = pl.wsPersist[d] + pl.wsPeak[d]
		if gm := ns.Devices[d].Spec().GlobalMem; workspace[d] > gm {
			return nil, fmt.Errorf("core: graph %s: working set needs %d bytes on %s (%d available) even after spilling",
				gs.name, workspace[d], ns.Devices[d].Name(), gm)
		}
	}

	referenced := make([]bool, len(pl.ops))
	for i := range pl.ops {
		for _, d := range pl.ops[i].deps {
			referenced[d] = true
		}
	}
	var terminals []int
	for i := range pl.ops {
		if !referenced[i] {
			terminals = append(terminals, i)
		}
	}

	plan := &gplan{
		ops: pl.ops, terminals: terminals,
		workspace: workspace, book: pl.book, records: pl.records,
		chainHits: pl.chainHits, plannedBytes: pl.plannedBytes,
		flops: pl.flops, verify: pl.verify,
	}
	return &Graph{ns: ns, spec: gs, plan: plan, ws: make([]ocl.Buffer, ndev)}, nil
}

func (pl *gplanner) emit(o gop) int {
	pl.ops = append(pl.ops, o)
	return len(pl.ops) - 1
}

func (pl *gplanner) label(parts ...string) string {
	if !pl.tracing {
		return ""
	}
	s := pl.gs.name
	for _, p := range parts {
		s += "." + p
	}
	return s
}

// sliceOff maps `unit` of `total` split units onto a byte offset of a buffer
// of the given size: exact at the ends, monotonic, overflow-safe.
func sliceOff(bytes, unit, total int64) int64 {
	return bytes/total*unit + bytes%total*unit/total
}

// covered sums how many bytes of interval [off, off+n) of buffer b are
// already materialized on device d (resident shards or planned uploads).
func (pl *gplanner) covered(b *GraphBuffer, d int, off, n int64) int64 {
	loc := &pl.locs[b.idx]
	var c int64
	for _, sh := range loc.shards {
		if sh.dev == d {
			c += overlap(off, n, sh.off, sh.n)
		}
	}
	for _, u := range loc.uploads {
		if u.dev == d {
			c += overlap(off, n, u.off, u.n)
		}
	}
	return c
}

func overlap(aOff, aN, bOff, bN int64) int64 {
	lo := aOff
	if bOff > lo {
		lo = bOff
	}
	hi := aOff + aN
	if bOff+bN < hi {
		hi = bOff + bN
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// missing is the PCIe traffic needed to materialize the slice of stage s
// assigned interval [u0, u1) of `total` split units on device d (total == 0
// plans the whole stage). Used for placement ranking only.
func (pl *gplanner) missing(s *StageSpec, d int, u0, u1, total int64) int64 {
	var m int64
	for _, b := range s.Reads {
		off, n := int64(0), b.bytes
		if total > 0 {
			off = sliceOff(b.bytes, u0, total)
			n = sliceOff(b.bytes, u1, total) - off
		}
		m += n - pl.covered(b, d, off, n)
	}
	for _, b := range s.Broadcast {
		m += b.bytes - pl.covered(b, d, 0, b.bytes)
	}
	return m
}

// materialize plans the transfers that put interval [off, off+n) of buffer b
// onto device d, feeding dependency ops into deps/lastUncond and transient
// byte pressure into transient. Chained same-device shards need neither a
// transfer nor an explicit event: the in-order compute queue already orders
// the consumer behind its producer.
func (pl *gplanner) materialize(b *GraphBuffer, d int, off, n int64, deps *depset, lastUncond *int, transient *int64) error {
	loc := &pl.locs[b.idx]
	if b.kind == bufInput {
		for _, u := range loc.uploads {
			if u.dev == d && u.off == off && u.n == n {
				deps.add(u.op) // conditional: explicit dep even when skipped
				return nil
			}
		}
		tag := fmt.Sprintf("%s.%s@%d+%d", pl.gs.name, b.name, off, n)
		op := pl.emit(gop{kind: gopH2D, dev: d, bytes: n, input: b, rtag: tag,
			label: pl.label(b.name, "in")})
		loc.uploads = append(loc.uploads, gshard{dev: d, off: off, n: n, op: op})
		pl.wsPersist[d] += n
		deps.add(op)
		return nil
	}
	if len(loc.shards) == 0 {
		// Spilled: the only copy is on the host.
		if !loc.hostValid {
			return fmt.Errorf("core: graph %s: buffer %q has no materialized copy", pl.gs.name, b.name)
		}
		var hd []int
		if loc.hostOp >= 0 {
			hd = []int{loc.hostOp}
		}
		op := pl.emit(gop{kind: gopH2D, dev: d, bytes: n, deps: hd,
			label: pl.label(b.name, "reload")})
		pl.plannedBytes += n
		*transient += n
		*lastUncond = op
		return nil
	}
	var got int64
	for _, sh := range loc.shards {
		ov := overlap(off, n, sh.off, sh.n)
		if ov == 0 {
			continue
		}
		got += ov
		if sh.dev == d {
			// Buffer-resident chaining: the consumer runs where the producer
			// left the data. No transfer, no event — the shared in-order
			// compute queue is the dependency.
			pl.chainHits++
			continue
		}
		// Cross-device gather: one D2H on the producer, one H2D here. These
		// are the merge edges of a split stage made explicit.
		r := pl.emit(gop{kind: gopD2H, dev: sh.dev, bytes: ov, deps: []int{sh.op},
			label: pl.label(b.name, "gather")})
		w := pl.emit(gop{kind: gopH2D, dev: d, bytes: ov, deps: []int{r},
			label: pl.label(b.name, "scatter")})
		pl.plannedBytes += 2 * ov
		*transient += ov
		*lastUncond = w
	}
	if got < n {
		return fmt.Errorf("core: graph %s: buffer %q interval [%d,%d) not fully covered", pl.gs.name, b.name, off, off+n)
	}
	return nil
}

// planStage places stage si: chained on the single best device or split
// across devices proportionally to roofline throughput. A stage whose own
// working set exceeds the chosen device's memory is an error, so the caller
// can take its CPU fallback as it does for an oversized launch (Fig. 4).
func (pl *gplanner) planStage(si int) error {
	s := &pl.gs.stages[si]
	ns := pl.ns
	ndev := len(ns.Devices)
	compiled := ns.kernels[s.Kernel].compiled

	ktFull := make([]simnet.Duration, ndev)
	costFull := make([]device.KernelCost, ndev)
	for d := 0; d < ndev; d++ {
		c, err := ns.kernelCost(d, compiled[d], s.Params)
		if err != nil {
			return fmt.Errorf("core: graph %s, stage %d (%s): %w", pl.gs.name, si, s.Kernel, err)
		}
		costFull[d] = c
		ktFull[d] = ns.Devices[d].Spec().KernelTime(c)
		if ktFull[d] <= 0 {
			ktFull[d] = 1
		}
	}

	var fullIn, fullOut int64
	for _, b := range s.Reads {
		fullIn += b.bytes
	}
	for _, b := range s.Broadcast {
		fullIn += b.bytes
	}
	for _, b := range s.Writes {
		fullOut += b.bytes
	}

	// Chain candidate: the device minimizing kernel time plus the transfers
	// its missing inputs would cost (ties break to the lower index, keeping
	// the plan deterministic).
	best := 0
	var bestT simnet.Duration
	for d := 0; d < ndev; d++ {
		t := ktFull[d] + ns.Devices[d].Spec().TransferTime(pl.missing(s, d, 0, 0, 0))
		if d == 0 || t < bestT {
			best, bestT = d, t
		}
	}

	if gm := ns.Devices[best].Spec().GlobalMem; fullIn+fullOut > gm {
		return fmt.Errorf("core: graph %s, stage %d (%s): working set needs %d bytes on %s (%d available)",
			pl.gs.name, si, s.Kernel, fullIn+fullOut, ns.Devices[best].Name(), gm)
	}

	// Split candidate: partition the data-parallel axis across all devices
	// with slice sizes proportional to predicted throughput; take it only
	// when the predicted makespan (slowest slice incl. its transfers) beats
	// the best single device.
	if s.SplitParam != "" && ndev > 1 {
		v := s.Params[s.SplitParam]
		if v >= int64(ndev) {
			cum, sliceCost, sliceKt, tSplit, err := pl.splitPlan(s, compiled, ktFull, v)
			if err != nil {
				return err
			}
			if tSplit < bestT {
				return pl.place(si, s, cum, v, sliceCost, sliceKt, true)
			}
		}
	}
	whole := make([]int64, ndev+1)
	for d := best + 1; d <= ndev; d++ {
		whole[d] = 1
	}
	return pl.place(si, s, whole, 1, costFull, ktFull, false)
}

// splitPlan sizes per-device slices of v split units proportionally to
// 1/kernel-time and prices the resulting makespan.
func (pl *gplanner) splitPlan(s *StageSpec, compiled []*codegen.Compiled, ktFull []simnet.Duration, v int64) (cum []int64, sliceCost []device.KernelCost, sliceKt []simnet.Duration, tSplit simnet.Duration, err error) {
	ns := pl.ns
	ndev := len(ns.Devices)
	var wsum float64
	w := make([]float64, ndev)
	for d := 0; d < ndev; d++ {
		w[d] = 1 / float64(ktFull[d])
		wsum += w[d]
	}
	cum = make([]int64, ndev+1)
	acc := 0.0
	for d := 0; d < ndev-1; d++ {
		acc += w[d]
		u := int64(acc / wsum * float64(v))
		if u < cum[d] {
			u = cum[d]
		}
		if u > v {
			u = v
		}
		cum[d+1] = u
	}
	cum[ndev] = v

	sliceCost = make([]device.KernelCost, ndev)
	sliceKt = make([]simnet.Duration, ndev)
	for d := 0; d < ndev; d++ {
		units := cum[d+1] - cum[d]
		if units == 0 {
			continue
		}
		params := make(map[string]int64, len(s.Params))
		for k, val := range s.Params {
			params[k] = val
		}
		params[s.SplitParam] = units
		c, cerr := ns.kernelCost(d, compiled[d], params)
		if cerr != nil {
			return nil, nil, nil, 0, fmt.Errorf("core: graph %s, stage %s slice: %w", pl.gs.name, s.Kernel, cerr)
		}
		sliceCost[d] = c
		sliceKt[d] = ns.Devices[d].Spec().KernelTime(c)
		t := sliceKt[d] + ns.Devices[d].Spec().TransferTime(pl.missing(s, d, cum[d], cum[d+1], v))
		if t > tSplit {
			tSplit = t
		}
	}
	return cum, sliceCost, sliceKt, tSplit, nil
}

// place plans stage si with device d computing split units [cum[d],
// cum[d+1]) of v. A whole-stage placement is the one-slice case: a single
// device covering [0, 1) of 1 unit. split labels the kernels per slice and
// keeps them out of the scheduler history.
func (pl *gplanner) place(si int, s *StageSpec, cum []int64, v int64, sliceCost []device.KernelCost, sliceKt []simnet.Duration, split bool) error {
	ns := pl.ns
	ndev := len(ns.Devices)
	verifyDev := -1
	for d := 0; d < ndev; d++ {
		if cum[d+1]-cum[d] > 0 {
			verifyDev = d
			break
		}
	}
	pl.verify = append(pl.verify, ns.kernels[s.Kernel].compiled[verifyDev])

	for d := 0; d < ndev; d++ {
		if cum[d+1]-cum[d] == 0 {
			continue
		}
		var deps depset
		lastUncond := -1
		var transient int64
		for _, b := range s.Reads {
			off := sliceOff(b.bytes, cum[d], v)
			n := sliceOff(b.bytes, cum[d+1], v) - off
			if n == 0 {
				continue
			}
			if err := pl.materialize(b, d, off, n, &deps, &lastUncond, &transient); err != nil {
				return err
			}
		}
		for _, b := range s.Broadcast {
			if err := pl.materialize(b, d, 0, b.bytes, &deps, &lastUncond, &transient); err != nil {
				return err
			}
		}
		if lastUncond >= 0 {
			deps.add(lastUncond)
		}
		if deps.overflow {
			return fmt.Errorf("core: graph %s, stage %d (%s): too many event dependencies", pl.gs.name, si, s.Kernel)
		}

		var outBytes int64
		for _, b := range s.Writes {
			outBytes += sliceOff(b.bytes, cum[d+1], v) - sliceOff(b.bytes, cum[d], v)
		}
		// Residency budget: keep outputs resident while the device has room;
		// once it is full, spill them to the host right after the kernel (the
		// D2H rides the DMA queue and overlaps downstream compute).
		spill := pl.wsPersist[d]+outBytes > ns.Devices[d].Spec().GlobalMem

		var label string
		if split {
			label = pl.label(s.Label, fmt.Sprintf("slice%d", d))
		} else {
			label = pl.label(s.Label)
		}
		kop := pl.emit(gop{kind: gopKernel, dev: d, cost: sliceCost[d], kt: sliceKt[d],
			label: label, deps: deps.slice()})
		pl.book[d] += sliceKt[d]
		pl.flops += sliceCost[d].Flops
		if !split {
			pl.records = append(pl.records, gRecord{kernel: s.Kernel, dev: d, kt: sliceKt[d]})
		}

		for _, b := range s.Writes {
			off := sliceOff(b.bytes, cum[d], v)
			n := sliceOff(b.bytes, cum[d+1], v) - off
			if n == 0 {
				continue
			}
			loc := &pl.locs[b.idx]
			if b.kind == bufOutput || spill {
				r := pl.emit(gop{kind: gopD2H, dev: d, bytes: n, deps: []int{kop},
					label: pl.label(b.name, "out")})
				pl.plannedBytes += n
				transient += n
				loc.hostValid = true
				loc.hostOp = r
			} else {
				loc.shards = append(loc.shards, gshard{dev: d, off: off, n: n, op: kop})
				pl.wsPersist[d] += n
			}
		}
		if transient > pl.wsPeak[d] {
			pl.wsPeak[d] = transient
		}
	}
	return nil
}
