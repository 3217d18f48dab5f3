// Command benchmark is the repository's end-to-end benchmark. It runs one of
// five workloads (or all of them, each in a fresh process), times only the
// calls into each layer's public functions, checks the outputs against
// references, and prints every metric as "workload metric value unit",
// followed by one JSON summary line. A results file with the host header,
// the per-pass samples and a digest of every virtual metric is written for
// later comparison with -compare.
//
// Usage (from this directory, or via run.sh from the repository root):
//
//	go run . -workload all -seed 1
//	go run . -workload scale-matmul -seed 2 -seconds 24
//	go run . -workload serve -trace 1
//	go run . -compare BASE_DIR HEAD_DIR
//	go run . -summary SET_DIR...
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// options are the flags that shape one measurement.
type options struct {
	seed       int64
	seconds    float64
	trace      bool
	traceDir   string
	outDir     string
	quick      bool
	partitions int // 0 = core.AutoPartitions per cluster, as the CLIs resolve it
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed for every generated input and simulation RNG (2 is the held-out seed)")
	seconds := fs.Float64("seconds", 0, "measure repeated passes for this many seconds (0: one pass)")
	traceFlag := fs.Int("trace", 0, "1: traced run (CPU profile, spans, per-layer self times); 0: untraced")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its Chrome trace and CPU profile")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "where results files are written")
	quick := fs.Bool("quick", false, "small form of every workload for tests: 2 nodes and opt only, k-means only in hetero, a quarter of the raytracer and k-means problems, a 1 s serve horizon at loads 0.8 and 1.3, 5 submissions")
	partitions := fs.Int("partitions", 0, "simulation partitions per cluster (0: core.AutoPartitions(nodes, GOMAXPROCS))")
	compare := fs.Bool("compare", false, "compare results: -compare BASE_DIR HEAD_DIR")
	summarize := fs.Bool("summary", false, "print the medians and quartiles of sets of results as JSON: -summary DIR...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs BASE_DIR and HEAD_DIR")
			return 2
		}
		ok, err := runCompare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *summarize {
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "benchmark: -summary needs at least one results directory")
			return 2
		}
		if err := runSummary(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must not be negative")
		return 2
	}
	o := options{
		seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		traceDir: *traceDir, outDir: *outDir, quick: *quick, partitions: *partitions,
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(res, o, stdout); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if !res.Correct {
		for _, c := range res.Checks {
			if !c.OK {
				fmt.Fprintf(stderr, "benchmark: %s: check %s failed: %s\n", w.name, c.Name, c.Detail)
			}
		}
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after another,
// so each reports its own peak memory and starts from a cold heap.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == "workload":
			i++ // drop the value too
		case strings.HasPrefix(a, "workload="):
		default:
			rest = append(rest, args[i])
		}
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, rest...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			}
			code = 1
		}
	}
	return code
}

// report prints every metric line, writes the results file and prints the
// JSON summary as the last line of standard output.
func report(res *result, o options, stdout io.Writer) error {
	for _, name := range res.metricOrder() {
		def := metricByName[name]
		fmt.Fprintf(stdout, "%s %s %s %s\n", res.Workload, name, formatValue(res.Metrics[name]), def.unit)
	}
	fmt.Fprintf(stdout, "%s trajectory_digest %s\n", res.Workload, res.Digest)
	path, err := res.write(o.outDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s results %s\n", res.Workload, path)

	summary := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for _, def := range catalogue {
		if (o.trace && def.perLayer) || (!o.trace && def.endToEnd) {
			summary.Metrics[def.name] = metricValue{Value: res.Metrics[def.name], Unit: def.unit}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// procs reports the GOMAXPROCS the benchmark runs with (nproc by default).
func procs() int { return runtime.GOMAXPROCS(0) }
