// Package cashmere is the public API of the Cashmere reproduction: a
// programming system for heterogeneous many-core clusters that tightly
// integrates the Satin divide-and-conquer model (automatic load balancing
// through random work stealing, latency hiding, fault tolerance) with
// MCL-compiled compute kernels (hardware-description hierarchy, stepwise
// refinement for performance).
//
// Hijma, Jacobs, van Nieuwpoort, Bal: "Cashmere: Heterogeneous Many-Core
// Computing", IPDPS 2015.
//
// A minimal program (see examples/quickstart):
//
//	ks, _ := cashmere.NewKernelSet("scale", kernelSource)
//	cl, _ := cashmere.NewCluster(cashmere.DefaultConfig(4, "gtx480"))
//	cl.Register(ks)
//	cl.Run(func(ctx *cashmere.Context) any {
//	    ... ctx.Spawn / ctx.Sync / ctx.EnableManyCore ...
//	    k, _ := cashmere.GetKernel(ctx, "scale")
//	    k.NewLaunch(cashmere.LaunchSpec{...}).Run(ctx)
//	    return nil
//	})
//
// Because real many-core hardware is unavailable to this reproduction, the
// cluster is simulated: a process-oriented discrete-event kernel models the
// nodes, the QDR InfiniBand interconnect, the PCIe links and the seven
// DAS-4 device types, while MCPL kernels additionally execute for real
// through a closure-compiled engine at verification scale. See DESIGN.md.
package cashmere

import (
	"sort"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/feedback"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/mcl/tune"
	"cashmere/internal/satin"
	"cashmere/internal/serve"
	"cashmere/internal/simnet"
	"cashmere/internal/svm"
	"cashmere/internal/trace"
)

// Core cluster types.
type (
	// Cluster is a Cashmere execution environment over a simulated cluster.
	Cluster = core.Cluster
	// Config describes the cluster: nodes, devices, network, runtime knobs.
	Config = core.Config
	// NodeSpec lists the many-core devices of one node.
	NodeSpec = core.NodeSpec
	// Context is the execution frame of a spawnable function.
	Context = satin.Context
	// Promise is a spawned job's result handle; valid after Sync.
	Promise = satin.Promise
	// JobDesc declares a job's modeled input/result sizes.
	JobDesc = satin.JobDesc
	// Kernel is a compiled compute kernel usable from leaf computations.
	Kernel = core.Kernel
	// LaunchSpec describes one kernel launch.
	LaunchSpec = core.LaunchSpec
	// KernelSet holds the stepwise-refined versions of one MCPL kernel.
	KernelSet = codegen.KernelSet
	// Time is a point in simulated time.
	Time = simnet.Time
	// Proc is a simulation process (used by custom drivers, e.g. fault
	// injection).
	Proc = simnet.Proc
	// Recorder collects trace spans, counters and gauges; export with
	// Recorder.Gantt, Recorder.CSV or Recorder.WriteChromeTrace.
	Recorder = trace.Recorder
	// Metrics is the flat name→value set returned by Cluster.CollectMetrics.
	Metrics = trace.Metrics
	// Array is an MCPL array value used at verification scale.
	Array = interp.Array
	// FeedbackMessage is one piece of MCL compiler feedback.
	FeedbackMessage = feedback.Message
)

// Shared virtual memory (internal/svm): the interchangeable alternative to
// explicit copies. With Config.Transport = TransportSVM, launch data moves
// as demand page migrations over the same DMA queues, and SVMBuffers are
// kept coherent by a per-node write-invalidate or region-ownership
// protocol. The same kernels run on either transport. See DESIGN.md,
// "Shared virtual memory", and cashmere-bench -experiment svm.
type (
	// Transport selects explicit copies or shared virtual memory.
	Transport = core.Transport
	// SVMBuffer is one coherent shared region of a node's SVM space.
	SVMBuffer = svm.Buffer
	// SVMConfig tunes page size, protocol and invalidation cost (Config.SVM).
	SVMConfig = svm.Config
	// SVMProtocol is the coherence protocol of an SVM space.
	SVMProtocol = svm.Protocol
	// SVMRange is a byte range of an SVMBuffer access.
	SVMRange = svm.Range
	// SVMMode declares how a launch touches a buffer.
	SVMMode = svm.Mode
	// BufferAccess is one declared SVM access of a LaunchSpec.
	BufferAccess = core.BufferAccess
	// SVMCounters are the fault/migration/invalidation statistics of a space.
	SVMCounters = svm.Counters
)

// Transport and SVM constants, re-exported for facade users.
const (
	TransportExplicit = core.TransportExplicit
	TransportSVM      = core.TransportSVM

	SVMRead      = svm.Read
	SVMWrite     = svm.Write
	SVMReadWrite = svm.ReadWrite

	SVMWriteInvalidate = svm.WriteInvalidate
	SVMRegionOwnership = svm.RegionOwnership
)

// ParseTransport maps the CLI spellings "explicit" and "svm" to a Transport.
func ParseTransport(s string) (Transport, error) { return core.ParseTransport(s) }

// NewSVMBuffer allocates, from inside a leaf computation, a coherent shared
// region homed on the executing node. Works under any transport.
func NewSVMBuffer(ctx *Context, name string, size int64) (*SVMBuffer, error) {
	return core.NewSVMBuffer(ctx, name, size)
}

// SyncSVM blocks until the host copy of b is current (dirty device pages
// migrate back). A no-op when nothing is dirty.
func SyncSVM(ctx *Context, b *SVMBuffer) { core.SyncSVM(ctx, b) }

// WriteSVM declares a host overwrite of b's given ranges (all of b when none
// are given), invalidating device copies.
func WriteSVM(ctx *Context, b *SVMBuffer, ranges ...SVMRange) { core.WriteSVM(ctx, b, ranges...) }

// Dataflow graphs: compound multi-kernel computations scheduled as one DAG
// across every device of a node — intermediates chain device-resident,
// data-parallel stages split across heterogeneous devices by the roofline
// cost model, oversized stages stream out-of-core. See DESIGN.md, "Dataflow
// graphs", and examples/graph.
type (
	// GraphSpec is the device-independent template: buffers are edges,
	// stages are kernel nodes.
	GraphSpec = core.GraphSpec
	// GraphBuffer is one typed edge (input, intermediate or output).
	GraphBuffer = core.GraphBuffer
	// StageSpec describes one stage: a kernel launch over graph buffers.
	StageSpec = core.StageSpec
	// Graph is a GraphSpec instantiated on one node, ready to Run.
	Graph = core.Graph
)

// NewGraphSpec starts a dataflow-graph template.
func NewGraphSpec(name string) *GraphSpec { return core.NewGraphSpec(name) }

// GetGraph instantiates (or fetches the node-cached instance of) a graph
// spec from inside a leaf computation.
func GetGraph(ctx *Context, spec *GraphSpec) (*Graph, error) { return core.GetGraph(ctx, spec) }

// RunGraph instantiates (cached) and runs a graph spec in one call.
func RunGraph(ctx *Context, spec *GraphSpec) error { return core.RunGraph(ctx, spec) }

// Online serving layer (internal/serve): run the cluster as a multi-tenant
// service with admission control, weighted-fair queueing, small-job batching
// and SLO-tracked latency. See cmd/cashmere-serve and examples/serving.
type (
	// ServeConfig describes one serving experiment: tenants, horizon,
	// batching and SLO.
	ServeConfig = serve.Config
	// ServeWorkload pairs kernel sets with the tenant population.
	ServeWorkload = serve.Workload
	// ServeReport is the outcome of a serving run: per-tenant admission,
	// shedding and latency-quantile accounting.
	ServeReport = serve.Report
	// TenantSpec configures one tenant: arrival process, token bucket,
	// queue bound, WFQ weight and job mix.
	TenantSpec = serve.TenantSpec
	// JobClass is one kind of request a tenant issues.
	JobClass = serve.JobClass
	// ArrivalSpec configures a tenant's arrival process (Poisson, bursty
	// MMPP, diurnal or trace replay).
	ArrivalSpec = serve.ArrivalSpec
	// AutoscaleConfig tunes the elastic autoscaler: queue-depth and
	// windowed-p99 signals with hysteresis, scale-in by drain-with-migration.
	AutoscaleConfig = serve.AutoscaleConfig
	// ChaosConfig tunes the deterministic fault-injection harness: network
	// partitions, device stragglers and correlated crashes.
	ChaosConfig = serve.ChaosConfig
	// ChaosEvent is one scheduled fault of an explicit chaos script.
	ChaosEvent = serve.ChaosEvent
	// TraceEvent is one arrival of a replay schedule.
	TraceEvent = serve.TraceEvent
	// ElasticReport is the capacity slice of a serving report (node-seconds
	// billed, scale events, migrations) when the autoscaler or chaos ran.
	ElasticReport = serve.ElasticReport
)

// StandardServeWorkload returns the default three-tenant serving population
// (interactive / analytics / batchy) with `total` offered requests/s.
func StandardServeWorkload(total float64) (*ServeWorkload, error) {
	return serve.StandardWorkload(total)
}

// DefaultServeConfig returns the default serving configuration for a
// workload (1s horizon, batching up to 4, 50ms SLO).
func DefaultServeConfig(w *ServeWorkload) ServeConfig { return serve.DefaultConfig(w) }

// Serve runs one serving experiment on the cluster. The workload's kernel
// sets must already be registered.
func Serve(cl *Cluster, cfg ServeConfig) (*ServeReport, error) { return serve.Run(cl, cfg) }

// DefaultAutoscale returns the default elastic-autoscaler tuning.
func DefaultAutoscale() *AutoscaleConfig { return serve.DefaultAutoscale() }

// DefaultChaos returns the default chaos-harness tuning for a seed.
func DefaultChaos(seed int64) *ChaosConfig { return serve.DefaultChaos(seed) }

// SynthesizeTrace draws a deterministic Poisson replay schedule per tenant
// from a private RNG (the "-replay synth" source of cashmere-serve).
func SynthesizeTrace(tenants []TenantSpec, horizon time.Duration, seed int64) map[string][]TraceEvent {
	return serve.SynthesizeTrace(tenants, horizon, seed)
}

// Auto-tuning (internal/mcl/tune): the automated counterpart of stepwise
// refinement. Tune searches version level x launch geometry per (kernel,
// device) on the simulated hardware; winners persist in a byte-stable cache
// that Config.Tuning feeds back into cluster initialization and
// ServeWorkload.ApplyTuning into serving cost hints and batch caps. See
// cmd/mclc -tune, cashmere-run -tune-cache and DESIGN.md, "Auto-tuning".
type (
	// TuneCache is the persistent auto-tuning cache (Config.Tuning).
	TuneCache = tune.Cache
	// TuneRequest describes one tuning problem: kernel set, device and a
	// representative launch.
	TuneRequest = tune.Request
	// TuneEntry is a cached winning configuration.
	TuneEntry = tune.Entry
	// TuneResult is a full search outcome: the entry plus every candidate.
	TuneResult = tune.Result
)

// NewTuneCache returns an empty auto-tuning cache.
func NewTuneCache() *TuneCache { return tune.NewCache() }

// LoadTuneCache reads a tuning-cache file; a missing file yields an empty
// cache.
func LoadTuneCache(path string) (*TuneCache, error) { return tune.Load(path) }

// TuneKernel runs the two-phase auto-tuning search (model-guided pruning,
// then measured refinement on a private simulated device) for one request.
func TuneKernel(req TuneRequest) (*TuneResult, error) { return tune.Tune(req, hdl.Library()) }

// TuneKey derives the cache key of a (kernel set, device-name) pair; it
// folds in the kernel sources' fingerprint, so edits miss cleanly.
func TuneKey(ks *KernelSet, dev string) (string, error) {
	spec, err := device.Lookup(dev)
	if err != nil {
		return "", err
	}
	return tune.Key(ks, spec), nil
}

// NewCluster builds a simulated Cashmere cluster.
func NewCluster(cfg Config) (*Cluster, error) { return core.NewCluster(cfg) }

// DefaultConfig returns a homogeneous cluster of n nodes, each with one
// device of the named type (catalog: gtx480, c2050, k20, gtx680, titan,
// hd7970, xeon_phi, cpu), connected by the DAS-4 QDR InfiniBand model.
func DefaultConfig(n int, device string) Config { return core.DefaultConfig(n, device) }

// NewKernelSet parses and checks MCPL sources defining versions of the
// named kernel at different hardware-description levels.
func NewKernelSet(name string, sources ...string) (*KernelSet, error) {
	return codegen.NewKernelSet(name, sources...)
}

// GetKernel retrieves, from inside a leaf computation, the kernel compiled
// for the executing node's devices (Fig. 4 of the paper).
func GetKernel(ctx *Context, name string) (*Kernel, error) { return core.GetKernel(ctx, name) }

// ParseMCPL parses and type-checks an MCPL source file.
func ParseMCPL(src string) (*mcpl.Program, error) {
	info, err := parseChecked(src)
	if err != nil {
		return nil, err
	}
	return info.Prog, nil
}

func parseChecked(src string) (*mcpl.Info, error) {
	prog, err := mcpl.Parse(src)
	if err != nil {
		return nil, err
	}
	return mcpl.Check(prog)
}

// Feedback runs the MCL stepwise-refinement feedback engine for a kernel
// against a hardware-description level (e.g. "gpu", "gtx480"). params give
// representative launch values for the kernel's scalar int parameters.
func Feedback(src, kernel, level string, params map[string]int64) ([]FeedbackMessage, error) {
	info, err := parseChecked(src)
	if err != nil {
		return nil, err
	}
	h := hdl.Library()
	lv, err := h.Lookup(level)
	if err != nil {
		return nil, err
	}
	return feedback.Generate(info, kernel, params, lv, nil)
}

// KernelGFLOPS compiles the kernel set's most specific version for the
// named device, evaluates the cost model for a launch with the given
// parameters, and reports the achieved GFLOP/s assuming the launch performs
// `flops` useful operations. It is the kernel-only metric behind Fig. 6 of
// the paper.
func KernelGFLOPS(ks *KernelSet, dev string, params map[string]int64, flops float64) (float64, error) {
	c, err := ks.Compile(dev, hdl.Library())
	if err != nil {
		return 0, err
	}
	cost, err := c.Cost(params)
	if err != nil {
		return 0, err
	}
	spec, err := device.Lookup(dev)
	if err != nil {
		return 0, err
	}
	return flops / spec.KernelTime(cost).Seconds() / 1e9, nil
}

// NewFloatArray allocates a float array for verification-scale kernel runs.
func NewFloatArray(dims ...int) *Array { return interp.NewFloatArray(dims...) }

// NewIntArray allocates an int array for verification-scale kernel runs.
func NewIntArray(dims ...int) *Array { return interp.NewIntArray(dims...) }

// HardwareLevels returns the names of the built-in hardware-description
// hierarchy (Fig. 2 of the paper), in sorted order.
func HardwareLevels() []string {
	h := hdl.Library()
	var names []string
	for name := range h.Levels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
