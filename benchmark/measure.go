package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/serve"
	"cashmere/internal/simnet"
)

// setupReps is the number of extra complete set-ups each run times before
// its passes, so that setup_s is a median of several samples even when a
// single pass fills the run.
const setupReps = 7

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// prepare performs every set-up call of one pass (kernel sets,
	// clusters, registration, input generation) through c and returns the
	// simulations to run, in order.
	prepare func(o options, c *clock) ([]*sim, error)
	// summarize derives the workload's own virtual metrics from one pass's
	// finished simulations, and checks their outputs.
	summarize func(sims []*sim, o options) (map[string]float64, []check)
	// verify runs the workload's correctness checks at verification scale.
	verify func(o options) []check
}

// sim is one simulation of a pass: a prepared cluster and the single timed
// call that runs it.
type sim struct {
	label string
	call  string // the public function the timed phase calls, for spans
	nodes int
	cl    *core.Cluster
	run   func(s *sim) error

	// Tags the summaries select on.
	app     string
	variant string
	load    float64

	// Outcome, kept after the cluster is released.
	elapsed   simnet.Time
	gflops    float64
	report    *serve.Report
	launches  int64
	fallbacks int64
	bytes     int64
}

// parts resolves the partition count of an n-node cluster exactly as the
// CLIs do for -partitions 0.
func (o options) parts(n int) int {
	if o.partitions > 0 {
		return o.partitions
	}
	return core.AutoPartitions(n, procs())
}

// clock accumulates the host time of calls into the layers' public
// functions, split into set-up and the timed phase, and records a span
// around each call when tracing.
type clock struct {
	setup, kernelSets, run time.Duration
	tr                     *tracer
}

func (c *clock) timed(acc *time.Duration, name string, f func() error) error {
	end := c.tr.begin(name)
	t := time.Now()
	err := f()
	*acc += time.Since(t)
	end()
	return err
}

// Setup times a set-up call: cluster construction, registration, input
// generation.
func (c *clock) Setup(name string, f func() error) error { return c.timed(&c.setup, name, f) }

// KernelSet times a call that parses and checks MCPL kernels
// (codegen.NewKernelSet); it is part of set-up.
func (c *clock) KernelSet(name string, f func() error) error {
	before := c.setup
	err := c.timed(&c.setup, name, f)
	c.kernelSets += c.setup - before
	return err
}

// Run times a call of the timed phase.
func (c *clock) Run(name string, f func() error) error { return c.timed(&c.run, name, f) }

// newCluster builds one simulation's cluster and registers its kernel sets,
// timing both as set-up.
func newCluster(c *clock, cfg core.Config, kss ...*codegen.KernelSet) (*core.Cluster, error) {
	var cl *core.Cluster
	if err := c.Setup("core.NewCluster", func() (err error) {
		cl, err = core.NewCluster(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	for _, ks := range kss {
		if err := c.Setup("core.Cluster.Register", func() error { return cl.Register(ks) }); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// pass is one complete execution of a workload's simulations. Its host
// times are in seconds at the probe's reference speed (see probe), except
// rawWall, the plain wall-clock seconds of the timed calls.
type pass struct {
	setup, wall, rawWall  float64
	probes                []float64 // probe seconds, one before each timed call
	kernelSets            time.Duration
	counters              map[string]float64 // per-layer counters, summed over simulations
	specific              map[string]float64 // the workload's virtual end-to-end metrics
	checks                []check
	sims                  []simInfo
	allocMB, numGC, rssMB float64
	attempted, failed     int64
}

// runPass prepares and runs one pass. With prof non-nil the timed phase is
// CPU-profiled into it.
func runPass(w *workload, o options, tr *tracer, prof *bytes.Buffer) (*pass, error) {
	// Start every pass from a collected heap returned to the OS, and count
	// its peak resident memory from there.
	debug.FreeOSMemory()
	resetPeakRSS()
	c := &clock{tr: tr}
	defer tr.begin("pass")()
	setupProbe := probe()
	sims, err := w.prepare(o, c)
	if err != nil {
		return nil, err
	}
	p := &pass{counters: map[string]float64{}, setup: c.setup.Seconds() * probeRefSeconds / setupProbe}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	for _, s := range sims {
		pr := probe()
		start := c.run
		if err := c.Run(s.call, func() error { return s.run(s) }); err != nil {
			if prof != nil {
				pprof.StopCPUProfile()
			}
			return nil, fmt.Errorf("%s: %w", s.label, err)
		}
		p.wall += (c.run - start).Seconds() * probeRefSeconds / pr
		p.probes = append(p.probes, pr)
		p.absorb(s)
	}
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	p.rssMB = peakRSSMiB()
	p.kernelSets, p.rawWall = c.kernelSets, c.run.Seconds()
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.numGC = float64(after.NumGC - before.NumGC)
	p.finish()
	p.specific, p.checks = w.summarize(sims, o)
	return p, nil
}

// virtualCounters are the trajectory-determined counters of
// Cluster.CollectMetrics the benchmark sums over a pass's simulations.
var virtualCounters = []string{
	"simnet.events", "simnet.callbacks", "simnet.stale_wakes",
	"net.messages_sent", "net.bytes_sent", "net.messages_dropped",
	"satin.jobs_spawned", "satin.jobs_executed", "satin.jobs_reexecuted",
	"satin.steals_ok", "satin.steals_failed",
	"mcl.launches", "mcl.bytes_moved", "mcl.kernel_busy_ns", "mcl.xfer_busy_ns", "mcl.overlap_lower_bound_ns",
	"graph.runs", "graph.resident_hits", "graph.bytes_moved_saved",
	"core.cpu_fallbacks", "core.cost_cache_hits", "core.cost_cache_misses",
	"svm.faults", "svm.hits", "svm.pages_migrated", "svm.invalidations", "svm.bytes_moved",
}

// absorb adds a finished simulation's counters to the pass and releases its
// cluster.
func (p *pass) absorb(s *sim) {
	m := s.cl.CollectMetrics()
	for _, name := range virtualCounters {
		p.counters[name] += float64(m.Int(name))
	}
	s.launches, s.fallbacks, s.bytes = m.Int("mcl.launches"), m.Int("core.cpu_fallbacks"), m.Int("mcl.bytes_moved")

	h := s.cl.HostMetrics()
	p.counters["simnet.switches"] += float64(h.Int("simnet.switches"))
	p.counters["simnet.self_wakes"] += float64(h.Int("simnet.self_wakes"))
	p.counters["simnet.max_queue"] = max(p.counters["simnet.max_queue"], float64(h.Int("simnet.max_queue")))
	parts := h.Int("pdes.partitions")
	p.counters["pdes.partitions"] = max(p.counters["pdes.partitions"], float64(parts))
	p.counters["pdes.rounds"] += float64(h.Int("pdes.rounds"))
	for i := int64(0); i < parts; i++ {
		pfx := fmt.Sprintf("pdes.p%d.", i)
		p.counters["pdes.windows"] += float64(h.Int(pfx + "windows"))
		p.counters["pdes.null_rounds"] += float64(h.Int(pfx + "null_rounds"))
		p.counters["pdes.cross_msgs"] += float64(h.Int(pfx + "cross_sent"))
		p.counters["pdes.run_wall_ns"] += float64(h.Int(pfx + "run_wall_ns"))
		p.counters["pdes.blocked_wall_ns"] += float64(h.Int(pfx + "blocked_wall_ns"))
	}

	for n := 0; n < s.cl.Runtime().Nodes(); n++ {
		for _, d := range s.cl.NodeState(n).Devices {
			p.counters["launches."+d.Spec().Name] += float64(d.Launches())
			p.counters["device_ns"] += float64(s.elapsed)
		}
	}
	if r := s.report; r != nil {
		p.counters["serve.offered"] += float64(r.Offered)
		p.counters["serve.admitted"] += float64(r.Admitted)
		p.counters["serve.shed_throttle"] += float64(r.ShedThrottle)
		p.counters["serve.shed_queue"] += float64(r.ShedQueue)
		p.counters["serve.retries"] += float64(r.Retries)
		p.counters["serve.completed"] += float64(r.Completed)
		p.counters["serve.errors"] += float64(r.Errors)
		p.counters["serve.slo_ok"] += float64(r.SLOOk)
		p.counters["serve.batches"] += float64(r.Batches)
		p.counters["serve.batched_requests"] += float64(r.BatchedReqs)
		p.counters["serve.max_depth"] = max(p.counters["serve.max_depth"], float64(r.MaxDepth))
	}
	p.sims = append(p.sims, simInfo{Label: s.label, Nodes: s.nodes, Partitions: int(parts), VirtualNs: int64(s.elapsed)})
	s.cl = nil
}

// deviceTypes are the catalog devices the scheduler can choose between.
var deviceTypes = []string{"gtx480", "c2050", "gtx680", "titan", "hd7970", "k20", "xeon_phi"}

// finish derives the pass's ratios and its operation counts.
func (p *pass) finish() {
	c := p.counters
	c["core.cost_cache_hit_ratio"] = ratio(c["core.cost_cache_hits"], c["core.cost_cache_hits"]+c["core.cost_cache_misses"])
	c["simnet.stale_ratio"] = ratio(c["simnet.stale_wakes"], c["simnet.events"])
	c["satin.steal_success_ratio"] = ratio(c["satin.steals_ok"], c["satin.steals_ok"]+c["satin.steals_failed"])
	c["svm.hit_ratio"] = ratio(c["svm.hits"], c["svm.hits"]+c["svm.faults"])
	c["pdes.null_round_ratio"] = ratio(c["pdes.null_rounds"], c["pdes.windows"]+c["pdes.null_rounds"])
	c["pdes.blocked_ratio"] = ratio(c["pdes.blocked_wall_ns"], c["pdes.run_wall_ns"]+c["pdes.blocked_wall_ns"])
	c["mcl.kernel_util"] = ratio(c["mcl.kernel_busy_ns"], c["device_ns"])
	c["mcl.xfer_util"] = ratio(c["mcl.xfer_busy_ns"], c["device_ns"])
	c["mcl.overlap_ratio"] = ratio(c["mcl.overlap_lower_bound_ns"], c["mcl.xfer_busy_ns"])
	c["serve.coalesced_ratio"] = ratio(c["serve.batched_requests"], c["serve.completed"])
	c["serve.slo_ok_ratio"] = ratio(c["serve.slo_ok"], c["serve.offered"])
	var launches float64
	for _, d := range deviceTypes {
		launches += c["launches."+d]
	}
	for _, d := range deviceTypes {
		c["sched.share."+d] = ratio(c["launches."+d], launches)
	}
	if c["serve.offered"] > 0 {
		p.attempted, p.failed = int64(c["serve.offered"]), int64(c["serve.errors"])
	} else {
		p.attempted = int64(c["mcl.launches"] + c["core.cpu_fallbacks"])
		p.failed = int64(c["core.cpu_fallbacks"])
	}
}

// digest hashes the pass's virtual metrics and counters.
func (p *pass) digest() string {
	all := map[string]float64{}
	for name, v := range p.counters {
		all[name] = v
	}
	for name, v := range p.specific {
		all[name] = v
	}
	return digest(all)
}

// measure runs the workload's checks, its extra set-ups and as many passes
// as fit in o.seconds (at least one; with tracing, at least one untraced
// and one traced pass, alternating), and assembles the result.
func measure(w *workload, o options) (*result, error) {
	res := &result{
		Workload: w.name, Host: newHostInfo(o), Traced: o.trace,
		Metrics: map[string]float64{}, Samples: map[string][]float64{},
	}
	t := time.Now()
	res.Checks = w.verify(o)
	verifyMs := msSince(t)

	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		c := &clock{}
		pr := probe()
		if _, err := w.prepare(o, c); err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds()*probeRefSeconds/pr)
	}

	var plain, traced []*pass
	var profiles [][]byte
	tr := &tracer{origin: time.Now()}
	start := time.Now()
	for i := 0; ; i++ {
		var p *pass
		var err error
		if o.trace && i%2 == 1 {
			tr.run = fmt.Sprintf("%s/seed%d/pass%d", w.name, o.seed, i)
			prof := &bytes.Buffer{}
			p, err = runPass(w, o, tr, prof)
			traced = append(traced, p)
			profiles = append(profiles, prof.Bytes())
		} else {
			p, err = runPass(w, o, nil, nil)
			plain = append(plain, p)
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setup)
		res.Attempted += p.attempted
		res.Failed += p.failed
		done := len(plain) > 0 && (!o.trace || len(traced) > 0)
		elapsed := time.Since(start).Seconds()
		if done && elapsed+elapsed/float64(i+1) > o.seconds {
			break
		}
	}

	var walls, rawWalls, probes, kernelSets, rss []float64
	for _, p := range plain {
		walls = append(walls, p.wall)
		rawWalls = append(rawWalls, p.rawWall)
		probes = append(probes, p.probes...)
		kernelSets = append(kernelSets, float64(p.kernelSets)/1e6)
		rss = append(rss, p.rssMB)
	}
	last := plain[len(plain)-1]
	for _, d := range catalogue {
		if (d.perLayer && !d.traced) || (d.traced && o.trace) {
			res.Metrics[d.name] = 0
		}
	}
	for name, v := range last.counters {
		if _, ok := metricByName[name]; ok {
			res.Metrics[name] = v
		}
	}
	for name, v := range last.specific {
		res.Metrics[name] = v
	}
	res.Metrics["wall_s"] = median(walls)
	res.Metrics["wall_raw_s"] = median(rawWalls)
	res.Metrics["host_speed"] = probeRefSeconds / median(probes)
	res.Metrics["setup_s"] = median(setups)
	// The first pass's peak: simulations leave their goroutines behind when
	// they finish, so every later pass starts from a larger resident set and
	// their peaks depend on how many passes fit in the run.
	res.Metrics["peak_rss_mb"] = rss[0]
	res.Metrics["simnet.events_per_s"] = ratio(last.counters["simnet.events"], res.Metrics["wall_s"])
	res.Metrics["mcpl.setup_ms"] = median(kernelSets)
	res.Metrics["go.alloc_mb"] = last.allocMB
	res.Metrics["go.num_gc"] = last.numGC
	res.Metrics["closure.verify_ms"] = verifyMs
	res.Samples["wall_s"] = walls
	res.Samples["wall_raw_s"] = rawWalls
	res.Samples["probe_s"] = probes
	res.Samples["setup_s"] = setups
	res.Samples["peak_rss_mb"] = rss

	// Every pass must follow the same trajectory, and pass its checks.
	repeat := check{Name: "every pass follows the same trajectory", OK: true}
	for _, p := range append(plain, traced...) {
		if got := p.digest(); got != last.digest() {
			repeat = check{Name: repeat.Name, Detail: got + " != " + last.digest()}
		}
	}
	res.Checks = append(append(res.Checks, repeat), last.checks...)
	res.Attempted += int64(len(res.Checks))
	res.Correct = true
	for _, c := range res.Checks {
		if !c.OK {
			res.Correct = false
			res.Failed++
		}
	}

	if o.trace {
		if err := res.addTraced(traced, profiles, tr, o); err != nil {
			return nil, err
		}
	}
	res.Sims = last.sims
	for _, s := range last.sims {
		res.Host.Partitions = max(res.Host.Partitions, s.Partitions)
	}
	res.Host.Passes, res.Host.TracedPasses, res.Host.SetupSamples = len(plain), len(traced), len(setups)
	res.Digest = last.digest()
	return res, nil
}

// addTraced folds the traced passes into the result: per-module self times
// from the CPU profiles (per pass), the tracing overhead against the
// untraced passes, and the span count. It writes the Chrome trace and the
// last CPU profile under o.traceDir.
func (res *result) addTraced(traced []*pass, profiles [][]byte, tr *tracer, o options) error {
	self := map[string]float64{}
	for _, prof := range profiles {
		if err := attribute(prof, self); err != nil {
			return fmt.Errorf("reading CPU profile: %w", err)
		}
	}
	var total float64
	for _, ms := range self {
		total += ms
	}
	for bucket, ms := range self {
		res.Metrics[selfMetric(bucket, "ms")] = ms / float64(len(profiles))
		res.Metrics[selfMetric(bucket, "pct")] = 100 * ratio(ms, total)
	}
	res.Metrics["cpu.profile_ms"] = total / float64(len(profiles))

	var walls []float64
	for _, p := range traced {
		walls = append(walls, p.wall)
	}
	res.Samples["trace.wall_s"] = walls
	res.Metrics["trace.wall_s"] = median(walls)
	res.Metrics["trace.overhead_pct"] = 100 * ratio(res.Metrics["trace.wall_s"]-res.Metrics["wall_s"], res.Metrics["wall_s"])
	res.Metrics["trace.spans"] = float64(len(tr.spans))

	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.traceDir, fmt.Sprintf("%s.seed%d", res.Workload, o.seed))
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", profiles[len(profiles)-1], 0o644)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
