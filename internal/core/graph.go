package core

import (
	"fmt"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/simnet"
)

// A GraphSpec is the device-independent template of a compound multi-kernel
// computation: kernels are stages (nodes), buffers are typed edges. Real MCL
// workloads are pipelines — k-means iterates assign→reduce, the raytracer
// renders→filters→reduces — and launching their stages one Launch at a time
// round-trips every intermediate buffer over PCIe. Scheduling the whole DAG
// at once lets the runtime chain dependent stages on the device that already
// holds their inputs (intermediates never touch the host), split
// data-parallel stages across heterogeneous devices by the roofline cost
// model, and overlap independent branches through the per-engine command
// queues. See "Execution of Compound Multi-Kernel OpenCL Computations in
// Multi-CPU/Multi-GPU Environments" (PAPERS.md) and DESIGN.md, "Dataflow
// graphs".
//
// Build a spec once on the host side:
//
//	gs := core.NewGraphSpec("kmeans-chain")
//	pts := gs.Input("points", 4*n*d)
//	asn := gs.Intermediate("assign", 4*n)
//	out := gs.Output("result", 64)
//	gs.Stage(core.StageSpec{Kernel: "kmeans", Params: ..., SplitParam: "n",
//	        Reads: []*core.GraphBuffer{pts}, Writes: []*core.GraphBuffer{asn}})
//	gs.Stage(core.StageSpec{Kernel: "filter", Params: ...,
//	        Reads: []*core.GraphBuffer{asn}, Writes: []*core.GraphBuffer{out}})
//
// then, from a leaf computation, RunGraph(ctx, gs) (or GetKernel-style
// GetGraph + Graph.Run). The per-node schedule is planned once and memoized;
// repeat submissions ride a pooled zero-allocation path like the PR 4 launch
// path.
type GraphSpec struct {
	name   string
	bufs   []*GraphBuffer
	stages []StageSpec
	err    error // first builder error, surfaced by Validate
}

// bufKind classifies a graph edge.
type bufKind int

const (
	// bufInput is external input data: it lives on the host and is
	// transferred to the devices that need it, once per Version per device
	// (the graph-level form of the paper's "device copies" optimization).
	bufInput bufKind = iota
	// bufIntermediate connects two stages. The scheduler keeps it resident
	// on the producing device whenever the consumer can run there; it only
	// crosses PCIe when stages are placed on different devices or when the
	// working set spills.
	bufIntermediate
	// bufOutput is read back to the host when its producing stage completes.
	bufOutput
)

// GraphBuffer is one typed edge of a graph: a named, sized buffer.
type GraphBuffer struct {
	name     string
	bytes    int64
	kind     bufKind
	idx      int
	version  int
	producer int // stage index that writes it; -1 until written
}

// Name returns the buffer name.
func (b *GraphBuffer) Name() string { return b.name }

// Bytes returns the buffer size.
func (b *GraphBuffer) Bytes() int64 { return b.bytes }

// SetVersion marks the host-side contents of an external input as changed:
// the next Run re-transfers the buffer to every device that uses it.
// Unchanged versions stay device-resident across runs (iterative
// applications re-ship bulk inputs zero times per iteration). Inputs start
// at version 1, so the first Run always transfers.
func (b *GraphBuffer) SetVersion(v int) { b.version = v }

// Version reports the current host-side contents version.
func (b *GraphBuffer) Version() int { return b.version }

// StageSpec describes one stage (node) of a graph: a kernel launch whose
// operands are graph buffers.
type StageSpec struct {
	// Kernel is the registered kernel-set name the stage launches.
	Kernel string
	// Params are the stage's scalar kernel parameters (full-size; split
	// slices scale SplitParam down per device).
	Params map[string]int64
	// Reads are the stage's input edges. When the stage splits across
	// devices, each read is sliced proportionally with the iteration space.
	Reads []*GraphBuffer
	// Broadcast are input edges every slice needs in full (e.g. the
	// centroid table of a k-means assignment stage).
	Broadcast []*GraphBuffer
	// Writes are the stage's output edges, sliced like Reads when the
	// stage splits. Each buffer may be written by exactly one stage.
	Writes []*GraphBuffer
	// SplitParam names the scalar parameter spanning the stage's
	// data-parallel axis. Non-empty marks the stage data-parallel: the
	// scheduler may partition it across the node's devices with per-device
	// slice sizes proportional to roofline-predicted throughput. Empty pins
	// the whole stage to one device.
	SplitParam string
	// Label annotates trace spans; defaults to Kernel.
	Label string
	// Args are the real arguments for verification-scale execution
	// (cluster Verify mode); the stage then also runs through the MCPL
	// engines on them, once, at full size.
	Args []any
}

// maxStageEdges bounds Reads+Broadcast per stage so every slice's event
// dependencies fit the ocl queue's fixed dependency array.
const maxStageEdges = 6

// NewGraphSpec starts a graph template. name prefixes resident-buffer tags
// and trace labels.
func NewGraphSpec(name string) *GraphSpec {
	return &GraphSpec{name: name}
}

// Name returns the graph name.
func (gs *GraphSpec) Name() string { return gs.name }

func (gs *GraphSpec) addBuf(name string, bytes int64, kind bufKind) *GraphBuffer {
	b := &GraphBuffer{name: name, bytes: bytes, kind: kind, idx: len(gs.bufs), producer: -1, version: 1}
	if bytes <= 0 && gs.err == nil {
		gs.err = fmt.Errorf("core: graph %s: buffer %q has non-positive size %d", gs.name, name, bytes)
	}
	for _, o := range gs.bufs {
		if o.name == name && gs.err == nil {
			gs.err = fmt.Errorf("core: graph %s: duplicate buffer %q", gs.name, name)
		}
	}
	gs.bufs = append(gs.bufs, b)
	return b
}

// Input declares an external input edge of the given size.
func (gs *GraphSpec) Input(name string, bytes int64) *GraphBuffer {
	return gs.addBuf(name, bytes, bufInput)
}

// Intermediate declares a stage-to-stage edge. It never touches the host
// unless the scheduler spills it.
func (gs *GraphSpec) Intermediate(name string, bytes int64) *GraphBuffer {
	return gs.addBuf(name, bytes, bufIntermediate)
}

// Output declares an edge read back to the host at the end of the run.
func (gs *GraphSpec) Output(name string, bytes int64) *GraphBuffer {
	return gs.addBuf(name, bytes, bufOutput)
}

// Stage appends a stage. Stages must be added in an order where every read
// edge is an input or was written by an earlier stage (a topological order
// of the DAG); violations surface here or in Validate.
func (gs *GraphSpec) Stage(s StageSpec) *GraphSpec {
	idx := len(gs.stages)
	fail := func(format string, args ...any) *GraphSpec {
		if gs.err == nil {
			gs.err = fmt.Errorf("core: graph %s, stage %d (%s): %s", gs.name, idx, s.Kernel, fmt.Sprintf(format, args...))
		}
		return gs
	}
	if s.Kernel == "" {
		return fail("empty kernel name")
	}
	if len(s.Writes) == 0 {
		return fail("no output edges")
	}
	if len(s.Reads)+len(s.Broadcast) > maxStageEdges {
		return fail("%d input edges exceed the per-stage limit of %d", len(s.Reads)+len(s.Broadcast), maxStageEdges)
	}
	if s.SplitParam != "" {
		if _, ok := s.Params[s.SplitParam]; !ok {
			return fail("split parameter %q not in Params", s.SplitParam)
		}
	}
	for _, b := range append(append([]*GraphBuffer{}, s.Reads...), s.Broadcast...) {
		if !gs.owns(b) {
			return fail("reads buffer not declared on this graph")
		}
		if b.kind != bufInput && b.producer < 0 {
			return fail("reads %q before any stage writes it", b.name)
		}
		if b.kind == bufOutput {
			return fail("reads output buffer %q (use an intermediate)", b.name)
		}
	}
	for _, b := range s.Writes {
		if !gs.owns(b) {
			return fail("writes buffer not declared on this graph")
		}
		if b.kind == bufInput {
			return fail("writes input buffer %q", b.name)
		}
		if b.producer >= 0 {
			return fail("buffer %q already written by stage %d", b.name, b.producer)
		}
		b.producer = idx
	}
	if s.Label == "" {
		s.Label = s.Kernel
	}
	gs.stages = append(gs.stages, s)
	return gs
}

func (gs *GraphSpec) owns(b *GraphBuffer) bool {
	return b != nil && b.idx < len(gs.bufs) && gs.bufs[b.idx] == b
}

// Validate reports the first construction error, if any.
func (gs *GraphSpec) Validate() error {
	if gs.err != nil {
		return gs.err
	}
	if len(gs.stages) == 0 {
		return fmt.Errorf("core: graph %s has no stages", gs.name)
	}
	for _, b := range gs.bufs {
		if b.kind != bufInput && b.producer < 0 {
			return fmt.Errorf("core: graph %s: buffer %q is never written", gs.name, b.name)
		}
	}
	return nil
}

// ExternalBytes reports the external traffic a run of the graph cannot
// avoid: input bytes in (counted once) and output bytes back.
func (gs *GraphSpec) ExternalBytes() (in, out int64) {
	for _, b := range gs.bufs {
		switch b.kind {
		case bufInput:
			in += b.bytes
		case bufOutput:
			out += b.bytes
		}
	}
	return in, out
}

// NaiveBytes reports the PCIe traffic of the equivalent naive per-kernel
// launch sequence (every stage ships its inputs down and its outputs back).
func (gs *GraphSpec) NaiveBytes() int64 {
	var total int64
	for _, s := range gs.stages {
		for _, b := range s.Reads {
			total += b.bytes
		}
		for _, b := range s.Broadcast {
			total += b.bytes
		}
		for _, b := range s.Writes {
			total += b.bytes
		}
	}
	return total
}

// EstimateCost models one run of the graph on a single device of the given
// spec: the sum of per-stage kernel times plus the external input/output
// transfers (intermediates chain on-device and are free). The serving layer
// uses it to derive CostHints for graph-valued job classes.
func (gs *GraphSpec) EstimateCost(spec *device.Spec, h *hdl.Hierarchy, kernels map[string]*codegen.KernelSet) (simnet.Duration, error) {
	if err := gs.Validate(); err != nil {
		return 0, err
	}
	var total simnet.Duration
	for _, s := range gs.stages {
		ks, ok := kernels[s.Kernel]
		if !ok {
			return 0, fmt.Errorf("core: graph %s: kernel %q not available for estimation", gs.name, s.Kernel)
		}
		c, err := ks.Compile(spec.Leaf, h)
		if err != nil {
			return 0, err
		}
		cost, err := c.Cost(s.Params)
		if err != nil {
			return 0, err
		}
		total += spec.KernelTime(cost)
	}
	in, out := gs.ExternalBytes()
	return total + spec.TransferTime(in) + spec.TransferTime(out), nil
}
