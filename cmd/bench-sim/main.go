// Command bench-sim regenerates BENCH_sim.json: the simulator hot-path
// numbers (event-loop cost, network message rate, Fig. 7 harness wall-clock)
// next to the recorded pre-optimization baseline.
//
// Usage (from the repository root, or use `make bench-sim`):
//
//	go run ./cmd/bench-sim
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric units (e.g. the trajectory-determined
	// virtual_ns/op and moved_bytes/op of the graph-vs-naive comparison).
	Extra map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Description string            `json:"description"`
	Date        string            `json:"date"`
	CPU         string            `json:"cpu"`
	Go          string            `json:"go"`
	Baseline    []benchResult     `json:"baseline"`
	Benchmarks  []benchResult     `json:"benchmarks"`
	Speedup     map[string]string `json:"speedup"`
	Notes       []string          `json:"notes"`
}

// baseline holds the numbers measured on the pre-optimization tree (two-switch
// scheduler, per-message Spawn, sequential harness) on the reference machine.
// They are recorded rather than regenerated because that code no longer
// exists.
var baseline = []benchResult{
	{Name: "BenchmarkSimnetEventLoop/hold", NsPerOp: 517.9, BytesPerOp: 0, AllocsPerOp: 0},
	{Name: "BenchmarkSimnetEventLoop/pingpong", NsPerOp: 1202, BytesPerOp: 48, AllocsPerOp: 3},
	{Name: "BenchmarkNetworkMessageRate/bulk", NsPerOp: 3963, BytesPerOp: 400, AllocsPerOp: 7},
	{Name: "BenchmarkNetworkMessageRate/ctl", NsPerOp: 2843, BytesPerOp: 400, AllocsPerOp: 7},
	{Name: "BenchmarkFig7Harness/sequential", NsPerOp: 8.42e9, BytesPerOp: 0, AllocsPerOp: 0},
}

func main() {
	var results []benchResult
	runs := []struct {
		pkg, pattern, benchtime string
	}{
		{"./internal/simnet/", "BenchmarkSimnetEventLoop", "1s"},
		{"./internal/network/", "BenchmarkNetworkMessageRate", "1s"},
		{"./internal/trace/", "BenchmarkTraceOverhead", "1s"},
		{"./internal/ocl/", "BenchmarkLaunchPath", "1s"},
		{"./internal/core/", "BenchmarkGraphVsNaive", "1x"},
		{"./internal/bench/", "BenchmarkFig7Harness", "1x"},
	}
	for _, r := range runs {
		fmt.Fprintf(os.Stderr, "bench-sim: running %s in %s\n", r.pattern, r.pkg)
		out, err := runBench(r.pkg, r.pattern, r.benchtime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-sim: %v\n%s", err, out)
			os.Exit(1)
		}
		parsed, err := parseBench(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-sim: %v\n", err)
			os.Exit(1)
		}
		results = append(results, parsed...)
	}

	diffAgainst("BENCH_sim.json", results)

	rep := report{
		Description: "Simulator hot-path benchmarks: per-event scheduling cost " +
			"(direct handoff vs the recorded two-switch baseline), steady-state network " +
			"message rate (pooled couriers, zero allocations), the tracing overhead with " +
			"the recorder off (must stay 0 allocs/op) and on, the device command-queue " +
			"launch path (enqueue write/launch/read with events, 0 allocs/op tracing off), " +
			"the dataflow-graph pipeline versus the equivalent naive per-kernel launch " +
			"sequence (virtual makespan and PCIe bytes in the extra metrics), " +
			"and the Fig. 7 harness wall-clock at harness parallelism 1 and 4 plus the " +
			"intra-simulation partitioned scheduler at 4 partitions. " +
			"Regenerate with: make bench-sim",
		Date:       time.Now().Format("2006-01-02"),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Baseline:   baseline,
		Benchmarks: results,
		Speedup:    speedups(results),
		Notes: []string{
			"baseline: pre-optimization tree (two-switch scheduler, per-message Spawn, sequential harness) on the reference machine",
			fmt.Sprintf("this run: GOMAXPROCS=%d; the fig7 parallel4/parallel1 and partitions4/parallel1 ratios are bounded by the host's core count", runtime.GOMAXPROCS(0)),
			"BenchmarkFig7Harness/partitions4 runs the same study sequentially across points with each simulation split over 4 conservative partitions (-partitions 4); trajectories are byte-identical to the sequential scheduler",
			"BenchmarkTraceOverhead/off is the per-call-site cost of disabled tracing (nil recorder); /on is the enabled recording cost paid only under -trace",
			"BenchmarkLaunchPath is one write->launch->read chain through the asynchronous command queues including the blocking wait; make bench-allocs pins its 0 allocs/op",
			"BenchmarkGraphVsNaive runs 10 iterations of a three-stage chain as one dataflow graph vs naive per-kernel launches; its virtual_ns/op and moved_bytes/op extras are trajectory-determined (identical on any host) and the graph_vs_naive_virtual speedup compares them",
		},
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-sim: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile("BENCH_sim.json", append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench-sim: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bench-sim: wrote BENCH_sim.json")
}

// diffAgainst prints per-benchmark deltas between this run and the committed
// report, so a regeneration shows at a glance what moved and by how much.
func diffAgainst(path string, results []benchResult) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-sim: no committed %s to diff against\n", path)
		return
	}
	var prev report
	if err := json.Unmarshal(data, &prev); err != nil {
		fmt.Fprintf(os.Stderr, "bench-sim: cannot parse committed %s: %v\n", path, err)
		return
	}
	old := map[string]benchResult{}
	for _, r := range prev.Benchmarks {
		old[r.Name] = r
	}
	fmt.Fprintf(os.Stderr, "bench-sim: deltas vs committed %s (dated %s):\n", path, prev.Date)
	seen := map[string]bool{}
	for _, r := range results {
		seen[r.Name] = true
		o, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "  %-44s %14.4g ns/op   (new)\n", r.Name, r.NsPerOp)
			continue
		}
		if o.NsPerOp <= 0 {
			// A zero committed time would make the delta undefined.
			fmt.Fprintf(os.Stderr, "  %-44s %14.4g ns/op   (committed ns/op is 0)\n", r.Name, r.NsPerOp)
			continue
		}
		pct := (r.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		fmt.Fprintf(os.Stderr, "  %-44s %14.4g ns/op  %+7.1f%% vs %.4g",
			r.Name, r.NsPerOp, pct, o.NsPerOp)
		if r.AllocsPerOp != o.AllocsPerOp {
			fmt.Fprintf(os.Stderr, "   allocs/op %g -> %g", o.AllocsPerOp, r.AllocsPerOp)
		}
		fmt.Fprintln(os.Stderr)
	}
	// Benchmarks that exist in the committed report but not in this run
	// (renamed or deleted): say so instead of silently dropping them.
	for _, o := range prev.Benchmarks {
		if !seen[o.Name] {
			fmt.Fprintf(os.Stderr, "  %-44s %14s          (removed; committed %.4g ns/op)\n",
				o.Name, "-", o.NsPerOp)
		}
	}
}

func runBench(pkg, pattern, benchtime string) (string, error) {
	cmd := exec.Command("go", "test", "-run", "xxx", "-bench", pattern,
		"-benchtime", benchtime, "-count", "1", pkg)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	return out.String(), err
}

// parseBench extracts "BenchmarkX/sub  N  v ns/op [v B/op v allocs/op]" lines.
func parseBench(out string) ([]benchResult, error) {
	var results []benchResult
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so names are machine-independent.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := benchResult{Name: name}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %v", sc.Text(), err)
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				// Custom b.ReportMetric units (virtual_ns/op, moved_bytes/op).
				if r.Extra == nil {
					r.Extra = map[string]float64{}
				}
				r.Extra[fields[i+1]] = v
			}
		}
		results = append(results, r)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines in output:\n%s", out)
	}
	return results, nil
}

// speedups reports current-vs-baseline ratios for the benchmarks that have a
// recorded baseline, plus the harness's internal parallel1/parallel4 ratio.
func speedups(results []benchResult) map[string]string {
	cur := map[string]float64{}
	for _, r := range results {
		cur[r.Name] = r.NsPerOp
	}
	out := map[string]string{}
	pair := map[string]string{
		"BenchmarkSimnetEventLoop/hold":     "event_loop_hold",
		"BenchmarkSimnetEventLoop/pingpong": "event_loop_pingpong",
		"BenchmarkNetworkMessageRate/bulk":  "network_bulk",
		"BenchmarkNetworkMessageRate/ctl":   "network_ctl",
	}
	for _, b := range baseline {
		key, ok := pair[b.Name]
		if !ok {
			continue
		}
		if v := cur[b.Name]; v > 0 {
			out[key] = fmt.Sprintf("%.2fx", b.NsPerOp/v)
		}
	}
	if p1, p4 := cur["BenchmarkFig7Harness/parallel1"], cur["BenchmarkFig7Harness/parallel4"]; p1 > 0 && p4 > 0 {
		out["fig7_parallel4_vs_parallel1"] = fmt.Sprintf("%.2fx", p1/p4)
	}
	if p1, d4 := cur["BenchmarkFig7Harness/parallel1"], cur["BenchmarkFig7Harness/partitions4"]; p1 > 0 && d4 > 0 {
		out["fig7_partitions4_vs_parallel1"] = fmt.Sprintf("%.2fx", p1/d4)
	}
	// The graph-vs-naive virtual-time ratio lives in the Extra metrics, not
	// ns/op: it compares simulated makespans, which are host-independent.
	virt := map[string]float64{}
	for _, r := range results {
		if v, ok := r.Extra["virtual_ns/op"]; ok {
			virt[r.Name] = v
		}
	}
	if g, n := virt["BenchmarkGraphVsNaive/graph"], virt["BenchmarkGraphVsNaive/naive"]; g > 0 && n > 0 {
		out["graph_vs_naive_virtual"] = fmt.Sprintf("%.2fx", n/g)
	}
	return out
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, after, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(after)
			}
		}
	}
	return runtime.GOARCH
}
