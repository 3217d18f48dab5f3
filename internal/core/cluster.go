// Package core implements Cashmere: the tight integration of the Satin
// divide-and-conquer runtime with MCL-compiled kernels (Sec. II-C and III of
// the paper). It provides:
//
//   - cluster setup: a master that broadcasts run-time information, per-node
//     device discovery, and compilation of the most specific kernel version
//     for every device (Sec. III-B, "On initialization");
//   - the kernel front-end used inside leaf computations: GetKernel /
//     NewLaunch / Launch, with automatic host-device transfers, device-memory
//     management and a CPU fallback when kernel setup fails (Fig. 4);
//   - the intra-node multi-device scheduler: a static relative-speed table
//     bootstraps queue assignment, measured kernel times refine it, and each
//     job goes to the queue that minimizes the overall completion time
//     (Sec. III-B, "spawning jobs to the many-core devices").
package core

import (
	"errors"
	"fmt"
	"time"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/tune"
	"cashmere/internal/network"
	"cashmere/internal/ocl"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
	"cashmere/internal/svm"
	"cashmere/internal/trace"
)

// Transport selects how launch data reaches the devices.
type Transport uint8

const (
	// TransportExplicit is the classic Cashmere model: the runtime enqueues
	// explicit bulk H2D/D2H copies sized by LaunchSpec.InBytes/OutBytes.
	TransportExplicit Transport = iota
	// TransportSVM replaces explicit copies with simulated shared virtual
	// memory: launch inputs fault in and outputs fault out as demand page
	// migrations on the same DMA queues, and declared svm.Buffer accesses go
	// through the node's coherence protocol (internal/svm).
	TransportSVM
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	if t == TransportSVM {
		return "svm"
	}
	return "explicit"
}

// ParseTransport maps CLI spellings to a Transport.
func ParseTransport(s string) (Transport, error) {
	switch s {
	case "", "explicit":
		return TransportExplicit, nil
	case "svm":
		return TransportSVM, nil
	}
	return 0, fmt.Errorf("core: unknown transport %q (want explicit or svm)", s)
}

// NodeSpec describes one node of the simulated cluster.
type NodeSpec struct {
	Devices []string // device catalog names, e.g. {"k20", "xeon_phi"}
}

// Config describes a Cashmere cluster.
type Config struct {
	Nodes []NodeSpec
	Net   network.Config
	Satin satin.Config
	Seed  int64
	// Partitions splits the simulation into that many conservatively
	// synchronized event loops (one per goroutine), each owning a contiguous
	// block of nodes; 0 or 1 runs the classic single sequential kernel.
	// Trajectories and metric dumps are identical for every value.
	Partitions int
	Record     bool // collect trace spans (Gantt charts)
	// TraceSched additionally records simulation-kernel scheduler slices
	// (every process run interval) and event-queue depth under the
	// trace.NodeKernel pseudo-node. Off by default: it multiplies span volume
	// and is only wanted for full -trace exports, not ASCII Gantt charts.
	TraceSched bool
	// Verify executes every kernel launch's compiled kernel on real data
	// (the launch must supply Args). Used at verification scale; paper-
	// scale runs leave it off and only charge modeled time.
	Verify bool
	// Transport selects explicit bulk copies (the default, the paper's
	// model) or simulated shared virtual memory as the data-movement model.
	// The same kernels run on either; only the billed movement differs.
	Transport Transport
	// SVM tunes the shared-virtual-memory layer (page size, coherence
	// protocol, invalidation cost); zero values take svm defaults. Only
	// meaningful with Transport == TransportSVM, but spaces exist (and
	// NewSVMBuffer works) under any transport so the same program text runs
	// on both.
	SVM svm.Config
	// Tuning, when non-nil, is the auto-tuning cache (internal/mcl/tune)
	// consulted at initialization: a kernel with a cached winner for a
	// device compiles at the tuned level with the tuned launch geometry
	// under the geometry-aware cost model, instead of the MostSpecific
	// default. The launch hot path is untouched — it reads the pre-compiled
	// tuned form from the same per-node table as always.
	Tuning *tune.Cache
}

// DefaultConfig returns a homogeneous cluster of n nodes with one device of
// the given type each, connected by the DAS-4 QDR InfiniBand model.
func DefaultConfig(n int, dev string) Config {
	sc := satin.DefaultConfig()
	// Workers exist only in runs started with Run, the divide-and-conquer
	// entry point; RunServices starts none whatever this says. A Cashmere
	// leaf already exposes parallelism for the whole many-core device, so
	// one worker per node suffices (Sec. V-B: Satin must create 8x more jobs
	// to keep a node busy). A single worker also keeps sibling node-level
	// jobs stealable instead of being consumed locally.
	sc.WorkersPerNode = 1
	// Cashmere leaves are tens of milliseconds; keep job discovery fast.
	sc.MaxIdleBackoff = time.Millisecond
	// NewCluster rejects an empty cluster and one above MaxNodes, so no
	// more specs are allocated than it takes to say so.
	nodes := make([]NodeSpec, min(max(n, 0), MaxNodes+1))
	for i := range nodes {
		nodes[i] = NodeSpec{Devices: []string{dev}}
	}
	return Config{Nodes: nodes, Net: network.QDRInfiniBand(), Satin: sc, Seed: 1}
}

// Cluster is a Cashmere execution environment.
type Cluster struct {
	cfg Config
	ps  *simnet.Partitioned
	k   *simnet.Kernel
	rt  *satin.Runtime
	rec *trace.Recorder
	h   *hdl.Hierarchy

	nodes    []*NodeState
	registry map[string]*codegen.KernelSet

	initialized bool
}

// NodeState is the per-node Cashmere state (devices, compiled kernels,
// scheduler).
type NodeState struct {
	cl        *Cluster
	ID        int
	Devices   []*ocl.Device
	Sched     *Scheduler
	Space     *svm.Space               // this node's shared-virtual-memory manager
	kernels   map[string]*Kernel       // kernel name -> its handle, compiled per device
	residents map[residentKey]resident // device-resident data, per device and tag

	costCache            map[costKey]*costSlot // memoized MCL cost evaluations, per device
	costHits, costMisses int64

	graphs   map[*GraphSpec]*Graph // instantiated dataflow graphs, one per spec
	launches *Launch               // pooled launches of Launch.Run
	// Graph counters (summed into CollectMetrics as graph.*): runs, stage
	// executions, input edges satisfied without a transfer, and PCIe bytes
	// not moved relative to the naive per-kernel launch sequence.
	graphRuns, graphStages int64
	graphResidentHits      int64
	graphBytesSaved        int64

	// flopsCharged and cpuFallbacks live per node (not on Cluster) so launch
	// code on different partitions never shares a counter; the Cluster methods
	// sum them after the run.
	flopsCharged float64
	cpuFallbacks int64
}

// residentKey identifies one resident buffer on one device of a node.
type residentKey struct {
	dev int
	tag string
}

// resident is what a device holds of one resident buffer: the host-side
// version it last received and the transfer that brought it, which may still
// be on the wire.
type resident struct {
	version int
	ev      ocl.Event
}

// stageResident ships n bytes of buffer tag to device dev, after deps, when
// the device does not hold this version yet; a tag the device has never seen
// matches no version, 0 included. Otherwise it returns the transfer that
// brought the current version (hit true): a concurrent launch or graph run
// may still have it on the wire, so the caller orders behind it instead of
// assuming it landed. Launch.Run (Resident) and Graph.Run (versioned inputs)
// share it, and with it one view of what each device holds.
func (ns *NodeState) stageResident(dev int, tag string, version int, n int64, label string, deps ...ocl.Event) (ev ocl.Event, hit bool) {
	key := residentKey{dev: dev, tag: tag}
	if r, ok := ns.residents[key]; ok && r.version == version {
		return r.ev, true
	}
	ev = ns.stageH2D(dev, n, label, deps...)
	ns.residents[key] = resident{version: version, ev: ev}
	return ev, false
}

// MaxNodes is the most nodes a cluster may have. The paper's experiments
// use at most 16 nodes (Figs. 7-14); 4096 is 256 times that, and building a
// cluster of 4096 GTX480 nodes allocates about 55 MB. Region-scale fleets
// are not modelled, so a larger count is taken for a typo: it fails before
// any per-node state exists instead of growing until the host kills it.
const MaxNodes = 4096

// MaxDevicesPerNode is the most devices one node may have: every node gets
// a shared-virtual-memory space, under every transport, and a space tracks
// at most svm.MaxDevices devices beside the host.
const MaxDevicesPerNode = svm.MaxDevices

// ErrNoNodes is the error of a cluster configured with fewer than one node.
var ErrNoNodes = errors.New("core: cluster needs at least one node")

// ErrTooManyNodes is the error of a cluster configured with more than
// MaxNodes nodes.
var ErrTooManyNodes = fmt.Errorf("core: cluster has more than %d nodes (MaxNodes)", MaxNodes)

// NewCluster builds the cluster. Call Register for each kernel set, then
// Run (which initializes on first use).
func NewCluster(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, ErrNoNodes
	}
	if len(cfg.Nodes) > MaxNodes {
		return nil, ErrTooManyNodes
	}
	for i, ns := range cfg.Nodes {
		if len(ns.Devices) > MaxDevicesPerNode {
			return nil, fmt.Errorf("core: node %d has %d devices, more than %d (MaxDevicesPerNode)", i, len(ns.Devices), MaxDevicesPerNode)
		}
	}
	if cfg.Partitions < 0 {
		return nil, fmt.Errorf("core: Partitions %d is negative (0 and 1 run one sequential kernel)", cfg.Partitions)
	}
	parts := max(cfg.Partitions, 1)
	if cfg.Record && parts > 1 {
		// The trace recorder is a single shared sink; recording runs are
		// sequential by construction.
		return nil, fmt.Errorf("core: Record requires Partitions <= 1 (tracing is not partition-safe)")
	}
	ps := simnet.NewPartitioned(cfg.Seed, len(cfg.Nodes), parts)
	k := ps.Kernels()[0]
	var rec *trace.Recorder
	if cfg.Record {
		rec = trace.New()
		if cfg.TraceSched {
			k.SetTracer(schedTracer{rec: rec})
		}
	}
	cl := &Cluster{
		cfg:      cfg,
		ps:       ps,
		k:        k,
		rt:       satin.NewPartitioned(ps, len(cfg.Nodes), cfg.Net, cfg.Satin, rec),
		rec:      rec,
		h:        hdl.Library(),
		registry: map[string]*codegen.KernelSet{},
	}
	for i, ns := range cfg.Nodes {
		on, err := ocl.NewNode(ps.KernelFor(i), i, rec, ns.Devices...)
		if err != nil {
			return nil, err
		}
		state := &NodeState{
			cl: cl, ID: i, Devices: on.Devices,
			kernels:   map[string]*Kernel{},
			residents: map[residentKey]resident{},
			costCache: map[costKey]*costSlot{},
			graphs:    map[*GraphSpec]*Graph{},
		}
		state.Space = svm.NewSpace(ps.KernelFor(i), i, on.Devices, cfg.SVM, rec)
		state.Sched = newScheduler(state)
		cl.nodes = append(cl.nodes, state)
		cl.rt.Node(i).SetDeviceState(state)
	}
	return cl, nil
}

// Kernel returns the master's simulation kernel (for custom drivers and
// tests; partition 0 in a partitioned cluster).
func (cl *Cluster) Kernel() *simnet.Kernel { return cl.k }

// FlopsCharged sums the modeled flops of every kernel launch, for GFLOPS
// reporting by the benchmark harness. Must not be called during a run.
func (cl *Cluster) FlopsCharged() float64 {
	var t float64
	for _, ns := range cl.nodes {
		t += ns.flopsCharged
	}
	return t
}

// CPUFallbacks counts leaves that fell back to the CPU, summed over nodes.
// Must not be called during a run.
func (cl *Cluster) CPUFallbacks() int64 {
	var t int64
	for _, ns := range cl.nodes {
		t += ns.cpuFallbacks
	}
	return t
}

// Runtime returns the underlying Satin runtime.
func (cl *Cluster) Runtime() *satin.Runtime { return cl.rt }

// Recorder returns the trace recorder, or nil when Config.Record is false.
func (cl *Cluster) Recorder() *trace.Recorder { return cl.rec }

// NodeState returns node i's Cashmere state.
func (cl *Cluster) NodeState(i int) *NodeState { return cl.nodes[i] }

// Verify reports whether kernels execute on real data.
func (cl *Cluster) Verify() bool { return cl.cfg.Verify }

// Register adds a kernel set (all versions of one kernel) to the cluster's
// registry. Must be called before Run.
func (cl *Cluster) Register(ks *codegen.KernelSet) error {
	if cl.initialized {
		return fmt.Errorf("core: Register after initialization")
	}
	if _, dup := cl.registry[ks.Name]; dup {
		return fmt.Errorf("core: kernel %q registered twice", ks.Name)
	}
	cl.registry[ks.Name] = ks
	return nil
}

// initialize compiles, on every node, the most specific version of every
// registered kernel for each of the node's devices (Sec. III-B: the master
// broadcasts run-time information and each node compiles for its devices).
// MCL compiles a kernel once per hardware description: each (kernel,
// device type) is compiled, and looked up in the tuning cache, once per
// cluster, and every node whose device has that type shares the result.
// With a tuning cache configured, cached winners override the default
// level/geometry choice per (kernel, device type).
func (cl *Cluster) initialize() error {
	type compileKey struct {
		ks  *codegen.KernelSet
		dev string
	}
	done := map[compileKey]*codegen.Compiled{}
	for _, ns := range cl.nodes {
		for name, ks := range cl.registry {
			var compiled []*codegen.Compiled
			for _, dev := range ns.Devices {
				key := compileKey{ks, dev.Spec().Name}
				c, ok := done[key]
				if !ok {
					var err error
					if c, err = cl.compileFor(ks, dev.Spec()); err != nil {
						return fmt.Errorf("core: node %d, device %s: %w", ns.ID, dev.Name(), err)
					}
					done[key] = c
				}
				compiled = append(compiled, c)
			}
			ns.kernels[name] = &Kernel{ns: ns, name: name, compiled: compiled}
		}
	}
	cl.initialized = true
	return nil
}

// compileFor compiles one kernel set for one device, applying the tuning
// cache's winner (level + launch geometry, geometry-aware cost model) when
// one exists; the tuned form is a private copy of the set's shared compile.
// A cache miss falls back to the classic MostSpecific compile so untuned
// runs are bit-for-bit unchanged.
func (cl *Cluster) compileFor(ks *codegen.KernelSet, spec *device.Spec) (*codegen.Compiled, error) {
	if cl.cfg.Tuning != nil {
		if e, ok := cl.cfg.Tuning.Lookup(tune.Key(ks, spec)); ok {
			return e.Compile(ks, spec.Leaf, cl.h)
		}
	}
	return ks.Compile(spec.Leaf, cl.h)
}

// AutoPartitions picks the intra-simulation partition count used when a
// CLI's -partitions flag is 0 (auto): one partition per processor, never
// more than the node count (a partition without nodes is pure overhead),
// capped at 8 (beyond that the conservative-window synchronization cost
// outweighs the extra parallelism at the cluster sizes simulated here), and
// at least 1. Below 4 processors it is 1: on a 2-CPU host two partitions
// measurably lose to the sequential kernel on every benchmark workload,
// because a window holds too few events to pay for its barrier.
func AutoPartitions(nodes, procs int) int {
	if procs < 4 {
		return 1
	}
	return max(1, min(procs, nodes, 8))
}

// Run initializes the cluster (master broadcast of run-time information,
// kernel compilation) and executes main as the root Cashmere job, returning
// its result and the virtual completion time.
func (cl *Cluster) Run(main func(ctx *satin.Context) any) (any, simnet.Time, error) {
	return cl.run(cl.rt.Run, main)
}

// RunServices is Run for a run that spawns no stealable job (serving,
// dataflow graphs placed with many-core spawns or Runtime.GoOn): it starts
// no idle Satin workers, so no node sends steal probes (see
// satin.Runtime.RunServices). A normal-mode Spawn inside it panics.
func (cl *Cluster) RunServices(main func(ctx *satin.Context) any) (any, simnet.Time, error) {
	return cl.run(cl.rt.RunServices, main)
}

// run initializes the cluster on first use and executes main with the
// given runtime entry point.
func (cl *Cluster) run(run func(func(*satin.Context) any) (any, simnet.Time), main func(*satin.Context) any) (any, simnet.Time, error) {
	if !cl.initialized {
		if err := cl.initialize(); err != nil {
			return nil, 0, err
		}
	}
	v, end := run(main)
	return v, end, nil
}

// GetKernel is the Cashmere front-end call of Fig. 4: from a leaf
// computation, retrieve the node's handle of the kernel compiled for its
// devices. It fails if the kernel is unknown, which (per Fig. 4) sends the
// caller to its CPU fallback.
func GetKernel(ctx *satin.Context, name string) (*Kernel, error) {
	ns, ok := ctx.Node().DeviceState().(*NodeState)
	if !ok {
		return nil, fmt.Errorf("core: node %d has no Cashmere state", ctx.NodeID())
	}
	if len(ns.Devices) == 0 {
		return nil, fmt.Errorf("core: node %d has no many-core devices", ctx.NodeID())
	}
	k, ok := ns.kernels[name]
	if !ok {
		return nil, fmt.Errorf("core: kernel %q not registered", name)
	}
	return k, nil
}
