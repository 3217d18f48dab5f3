package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef describes one reported metric. A host metric is a wall-clock or
// memory measurement of the simulator itself and varies run to run; a
// virtual metric is a result of the model, determined by the trajectory,
// and repeats exactly at a given seed.
type metricDef struct {
	name   string
	unit   string
	clock  string // "host" or "virtual"
	better string // "lower" or "higher"; "" for metrics reported without a verdict
	// bound is the relative share by which the median may worsen before a
	// change counts as a regression; abs, when set, is an absolute bound
	// used instead (for quantities that sit near zero).
	bound, abs float64
	endToEnd   bool // listed in BENCHMARK.json end_to_end: every workload reports it, never 0
	perLayer   bool // listed in BENCHMARK.json per_layer: every workload reports it with -trace 1
	traced     bool // needs the traced run (profile or spans)
}

// catalogue lists every metric in report order. The three host metrics
// every workload reports come first, then the virtual end-to-end metrics,
// then the per-layer metrics grouped by module, and last the per-module self
// times of a traced run. The virtual end-to-end metrics are judged by
// -compare, not listed in BENCHMARK.json: they repeat exactly at a seed,
// and dataflow's do not change with the seed at all. Per-layer quantities
// that can read 0 on a workload that never exercises the layer are shares
// or counts, not times; their times are reported beside them but not listed
// in BENCHMARK.json.
var catalogue = append([]metricDef{
	{name: "wall_s", unit: "s", clock: "host", better: "lower", bound: 0.24, endToEnd: true},
	{name: "setup_s", unit: "s", clock: "host", better: "lower", bound: 0.25, endToEnd: true},
	{name: "peak_rss_mb", unit: "MiB", clock: "host", better: "lower", bound: 0.20, endToEnd: true},
	{name: "wall_raw_s", unit: "s", clock: "host"},     // wall_s before normalisation by the probe
	{name: "host_speed", unit: "ratio", clock: "host"}, // probeRefSeconds over the run's median probe time

	{name: "virtual_s", unit: "s", clock: "virtual", better: "lower", bound: 0.005},
	{name: "failed_frac", unit: "ratio", clock: "virtual", better: "lower", abs: 0.002},
	{name: "gflops_16", unit: "GFLOPS", clock: "virtual", better: "higher", bound: 0.005},
	{name: "speedup_16", unit: "x", clock: "virtual", better: "higher", bound: 0.005},
	{name: "efficiency", unit: "ratio", clock: "virtual", better: "higher", bound: 0.005},
	{name: "paper_err", unit: "log2", clock: "virtual", better: "lower", abs: 0.01},
	{name: "p50_ms", unit: "ms", clock: "virtual", better: "lower", bound: 0.10},
	{name: "p99_ms", unit: "ms", clock: "virtual", better: "lower", bound: 0.10},
	{name: "goodput_rps", unit: "req/s", clock: "virtual", better: "higher", bound: 0.01},
	{name: "max_load_in_slo", unit: "capacity", clock: "virtual", better: "higher", abs: 0.1},

	// mcl/codegen, mcl/mcpl and the core cost cache.
	{name: "mcpl.setup_ms", unit: "ms", clock: "host", perLayer: true},
	{name: "core.cost_cache_hits", unit: "count", clock: "virtual", perLayer: true},
	{name: "core.cost_cache_misses", unit: "count", clock: "virtual", perLayer: true},
	{name: "core.cost_cache_hit_ratio", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "go.alloc_mb", unit: "MiB", clock: "host", perLayer: true},
	{name: "go.num_gc", unit: "count", clock: "host", perLayer: true},

	// simnet: the event loop.
	{name: "simnet.events", unit: "count", clock: "virtual", perLayer: true},
	{name: "simnet.callbacks", unit: "count", clock: "virtual", perLayer: true},
	{name: "simnet.stale_wakes", unit: "count", clock: "virtual", perLayer: true},
	{name: "simnet.stale_ratio", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "simnet.switches", unit: "count", clock: "host", perLayer: true},
	{name: "simnet.self_wakes", unit: "count", clock: "host", perLayer: true},
	{name: "simnet.max_queue", unit: "count", clock: "host", perLayer: true},
	{name: "simnet.events_per_s", unit: "1/s", clock: "host", perLayer: true},

	// simnet's partitioned DES.
	{name: "pdes.partitions", unit: "count", clock: "host", perLayer: true},
	{name: "pdes.rounds", unit: "count", clock: "host", perLayer: true},
	{name: "pdes.null_round_ratio", unit: "ratio", clock: "host", perLayer: true},
	{name: "pdes.blocked_ratio", unit: "ratio", clock: "host", perLayer: true},
	{name: "pdes.cross_msgs", unit: "count", clock: "host", perLayer: true},

	// network.
	{name: "net.messages_sent", unit: "count", clock: "virtual", perLayer: true},
	{name: "net.bytes_sent", unit: "B", clock: "virtual", perLayer: true},
	{name: "net.messages_dropped", unit: "count", clock: "virtual", perLayer: true},

	// satin.
	{name: "satin.jobs_spawned", unit: "count", clock: "virtual", perLayer: true},
	{name: "satin.jobs_executed", unit: "count", clock: "virtual", perLayer: true},
	{name: "satin.jobs_reexecuted", unit: "count", clock: "virtual", perLayer: true},
	{name: "satin.steals_ok", unit: "count", clock: "virtual", perLayer: true},
	{name: "satin.steals_failed", unit: "count", clock: "virtual", perLayer: true},
	{name: "satin.steal_success_ratio", unit: "ratio", clock: "virtual", perLayer: true},

	// ocl and device: launches, PCIe traffic, and engine busy time, also as
	// a share of the devices' time (device count x makespan).
	{name: "mcl.launches", unit: "count", clock: "virtual", perLayer: true},
	{name: "mcl.bytes_moved", unit: "B", clock: "virtual", perLayer: true},
	{name: "mcl.kernel_busy_ns", unit: "ns", clock: "virtual"},
	{name: "mcl.xfer_busy_ns", unit: "ns", clock: "virtual"},
	{name: "mcl.overlap_lower_bound_ns", unit: "ns", clock: "virtual"},
	{name: "mcl.kernel_util", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "mcl.xfer_util", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "mcl.overlap_ratio", unit: "ratio", clock: "virtual", perLayer: true}, // overlap over transfer busy time

	// core: the intra-node scheduler's choice of device, and fallbacks.
	{name: "sched.share.gtx480", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "sched.share.c2050", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "sched.share.gtx680", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "sched.share.titan", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "sched.share.hd7970", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "sched.share.k20", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "sched.share.xeon_phi", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "core.cpu_fallbacks", unit: "count", clock: "virtual", perLayer: true},

	// core graph planner and runner; the gains are naive explicit-copy
	// makespan over each other mode's.
	{name: "graph.runs", unit: "count", clock: "virtual", perLayer: true},
	{name: "graph.resident_hits", unit: "count", clock: "virtual", perLayer: true},
	{name: "graph.bytes_moved_saved", unit: "B", clock: "virtual", perLayer: true},
	{name: "dataflow.graph_explicit.virtual_ms", unit: "ms", clock: "virtual"},
	{name: "dataflow.graph_svm.virtual_ms", unit: "ms", clock: "virtual"},
	{name: "dataflow.naive_explicit.virtual_ms", unit: "ms", clock: "virtual"},
	{name: "dataflow.naive_svm.virtual_ms", unit: "ms", clock: "virtual"},
	{name: "dataflow.graph_explicit.gain", unit: "x", clock: "virtual", perLayer: true},
	{name: "dataflow.graph_svm.gain", unit: "x", clock: "virtual", perLayer: true},
	{name: "dataflow.naive_svm.gain", unit: "x", clock: "virtual", perLayer: true},

	// svm.
	{name: "svm.faults", unit: "count", clock: "virtual", perLayer: true},
	{name: "svm.hits", unit: "count", clock: "virtual", perLayer: true},
	{name: "svm.hit_ratio", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "svm.pages_migrated", unit: "count", clock: "virtual", perLayer: true},
	{name: "svm.invalidations", unit: "count", clock: "virtual", perLayer: true},
	{name: "svm.bytes_moved", unit: "B", clock: "virtual", perLayer: true},

	// serve.
	{name: "serve.offered", unit: "count", clock: "virtual", perLayer: true},
	{name: "serve.admitted", unit: "count", clock: "virtual", perLayer: true},
	{name: "serve.shed_throttle", unit: "count", clock: "virtual", perLayer: true},
	{name: "serve.shed_queue", unit: "count", clock: "virtual", perLayer: true},
	{name: "serve.retries", unit: "count", clock: "virtual", perLayer: true},
	{name: "serve.batches", unit: "count", clock: "virtual", perLayer: true},
	{name: "serve.coalesced_ratio", unit: "ratio", clock: "virtual", perLayer: true},
	{name: "serve.max_depth", unit: "count", clock: "virtual", perLayer: true},
	{name: "serve.slo_ok_ratio", unit: "ratio", clock: "virtual", perLayer: true},

	// mcl/closure: the correctness checks, outside the timed phase.
	{name: "closure.verify_ms", unit: "ms", clock: "host", perLayer: true},

	// The traced run: total CPU time profiled per pass, the traced pass's
	// wall time, its overhead over the untraced passes, and its spans.
	{name: "cpu.profile_ms", unit: "ms", clock: "host", perLayer: true, traced: true},
	{name: "trace.wall_s", unit: "s", clock: "host", perLayer: true, traced: true},
	{name: "trace.overhead_pct", unit: "%", clock: "host", perLayer: true, traced: true},
	{name: "trace.spans", unit: "count", clock: "host", perLayer: true, traced: true},
}, selfTimeMetrics()...)

// selfBuckets are the modules a traced run's CPU samples are attributed to
// (see attribute), in report order.
var selfBuckets = []string{
	"codegen", "mcpl", "core", "simnet", "pdes", "network", "satin", "ocl", "device",
	"svm", "serve", "apps", "closure", "interp", "mcl", "trace", "go.gc", "go.sched", "other",
}

// selfTimeMetrics lists, per module, its share of the profiled CPU time
// (listed in BENCHMARK.json) and that time per pass in milliseconds.
func selfTimeMetrics() []metricDef {
	var defs []metricDef
	for _, b := range selfBuckets {
		defs = append(defs,
			metricDef{name: selfMetric(b, "pct"), unit: "%", clock: "host", perLayer: true, traced: true},
			metricDef{name: selfMetric(b, "ms"), unit: "ms", clock: "host", traced: true})
	}
	return defs
}

// selfMetric names a module's self-time metric: "codegen.self_pct",
// "go.gc_self_ms".
func selfMetric(bucket, unit string) string {
	if strings.HasPrefix(bucket, "go.") {
		return bucket + "_self_" + unit
	}
	return bucket + ".self_" + unit
}

var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range catalogue {
		if _, dup := m[d.name]; dup {
			panic("benchmark: metric " + d.name + " listed twice")
		}
		m[d.name] = d
	}
	return m
}()

// result is one workload run, as printed and as written to the results file.
type result struct {
	Workload  string               `json:"workload"`
	Host      hostInfo             `json:"host"`
	Traced    bool                 `json:"traced"`
	Correct   bool                 `json:"correct"`
	Checks    []check              `json:"checks"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]float64   `json:"metrics"`
	Samples   map[string][]float64 `json:"samples"` // per-pass host samples behind the medians
	Sims      []simInfo            `json:"simulations"`
	Digest    string               `json:"trajectory_digest"`
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// simInfo records one simulation of a pass: what ran, on how many nodes,
// the partitions it resolved, and its virtual makespan.
type simInfo struct {
	Label      string `json:"label"`
	Nodes      int    `json:"nodes"`
	Partitions int    `json:"partitions"`
	VirtualNs  int64  `json:"virtual_ns"`
}

// metricOrder lists the metrics the result carries, in catalogue order.
func (r *result) metricOrder() []string {
	var names []string
	for _, d := range catalogue {
		if _, ok := r.Metrics[d.name]; ok {
			names = append(names, d.name)
		}
	}
	return names
}

// digest hashes every virtual metric (name and exact value), so two runs
// followed the same trajectory exactly when their digests match.
func digest(metrics map[string]float64) string {
	var names []string
	for name := range metrics {
		if metricByName[name].clock == "virtual" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%s\n", name, strconv.FormatFloat(metrics[name], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// write stores the result as JSON under dir, named so that repeated runs
// never overwrite each other.
func (r *result) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kind := "run"
	if r.Traced {
		kind = "trace"
	}
	name := fmt.Sprintf("%s.seed%d.%s.%s.json", r.Workload, r.Host.Seed, kind, time.Now().UTC().Format("20060102T150405.000000000"))
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', 10, 64)
}

// median returns the middle value (the mean of the two middle values for
// an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld, m, n := len(s), len(s)+1, 4
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
