// Command cashmere-bench regenerates the tables and figures of the paper's
// evaluation section on the simulated cluster.
//
// Usage:
//
//	cashmere-bench -experiment all
//	cashmere-bench -experiment fig7
//	cashmere-bench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"cashmere/internal/bench"
	"cashmere/internal/core"
	"cashmere/internal/mcl/tune"
)

// tuneOpts carries the tune experiment's flags.
var tuneOpts struct {
	json      string
	survivors int
}

// svmJSON is the -svm-json flag: destination of the BENCH_svm.json document.
var svmJSON string

var experiments = []string{
	"tab2", "fig6",
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	"tab3", "fig15", "fig16", "fig17", "tune", "svm",
}

func main() {
	exp := flag.String("experiment", "all", "experiment id (tab2, fig6..fig17, tab3, tune, svm) or all")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"number of simulations to run concurrently (1 = sequential); output is identical at any setting")
	partitionsF := flag.Int("partitions", 0,
		"split each scalability simulation into N conservatively synchronized partitions (intra-simulation parallelism; output is identical at any setting; 0 = auto: 1 below 4 CPUs, else from GOMAXPROCS and node count)")
	tuneJSON := flag.String("tune-json", "",
		"with -experiment tune, also write the sweep as the BENCH_kernels.json \"tuning\" section to this file")
	tuneSurv := flag.Int("tune-survivors", 0,
		"measured-refinement budget of the tune experiment (0 = tuner default)")
	svmJSONF := flag.String("svm-json", "",
		"with -experiment svm, also write the crossover sweep as BENCH_svm.json to this file")
	traceF := flag.String("trace", "",
		"write a Chrome trace of the heterogeneous k-means run (Figs. 16/17) and exit")
	metrics := flag.Bool("metrics", false,
		"print the metrics dump of the heterogeneous k-means run and exit")
	flag.Parse()
	bench.SetParallelism(*parallel)
	partitions = *partitionsF
	if partitions == 0 {
		// Auto: the scalability studies simulate clusters of up to 64 nodes;
		// size by the host's processors (clamped inside AutoPartitions).
		partitions = core.AutoPartitions(16, runtime.GOMAXPROCS(0))
	}
	tuneOpts.json = *tuneJSON
	tuneOpts.survivors = *tuneSurv
	svmJSON = *svmJSONF

	if *list {
		for _, e := range experiments {
			fmt.Println(e)
		}
		return
	}
	if *traceF != "" || *metrics {
		cl, err := bench.KMeansHeteroCluster()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashmere-bench:", err)
			os.Exit(1)
		}
		if *traceF != "" {
			f, err := os.Create(*traceF)
			if err == nil {
				err = cl.Recorder().WriteChromeTrace(f)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "cashmere-bench:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s: %d spans, %d counter samples\n", *traceF, cl.Recorder().Len(), cl.Recorder().Samples())
		}
		if *metrics {
			fmt.Print(cl.CollectMetrics().Format())
		}
		return
	}
	run := func(id string) {
		if err := runExperiment(id); err != nil {
			fmt.Fprintf(os.Stderr, "cashmere-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, e := range experiments {
			run(e)
		}
		return
	}
	run(*exp)
}

// scalability results are cached because figN and figN+1 come from the same
// runs.
var scaleCache = map[string][2]bench.Figure{}

// partitions is the -partitions flag: intra-simulation partition count for
// the scalability studies.
var partitions = 1

func scalability(app string) ([2]bench.Figure, error) {
	if f, ok := scaleCache[app]; ok {
		return f, nil
	}
	sp, ab, err := bench.ScalabilityPartitioned(app, partitions)
	if err != nil {
		return [2]bench.Figure{}, err
	}
	scaleCache[app] = [2]bench.Figure{sp, ab}
	return scaleCache[app], nil
}

func runExperiment(id string) error {
	appOf := map[string]string{
		"fig7": "raytracer", "fig8": "raytracer",
		"fig9": "matmul", "fig10": "matmul",
		"fig11": "kmeans", "fig12": "kmeans",
		"fig13": "nbody", "fig14": "nbody",
	}
	switch id {
	case "tab2":
		fmt.Print(bench.Table2())
	case "fig6":
		fig, err := bench.Fig6KernelPerformance()
		if err != nil {
			return err
		}
		fmt.Print(fig.Format())
	case "fig7", "fig9", "fig11", "fig13":
		figs, err := scalability(appOf[id])
		if err != nil {
			return err
		}
		fmt.Print(figs[0].Format())
	case "fig8", "fig10", "fig12", "fig14":
		figs, err := scalability(appOf[id])
		if err != nil {
			return err
		}
		fmt.Print(figs[1].Format())
	case "tab3":
		rows, err := bench.Table3()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable3(rows))
	case "fig15":
		fig, err := bench.Fig15Efficiency()
		if err != nil {
			return err
		}
		fmt.Print(fig.Format())
	case "fig16":
		s, err := bench.Fig16Gantt()
		if err != nil {
			return err
		}
		fmt.Print(s)
	case "fig17":
		s, err := bench.Fig17Gantt()
		if err != nil {
			return err
		}
		fmt.Print(s)
	case "tune":
		points, err := bench.TuneSweep(bench.TuneDevices, tune.NewCache(), tuneOpts.survivors)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTuneTable(points))
		if tuneOpts.json != "" {
			doc := map[string]any{
				"description": "auto-tuned vs hand-picked kernel configurations (internal/mcl/tune); regenerate with: go run ./cmd/cashmere-bench -experiment tune -tune-json <file>",
				"devices":     bench.TuneDevices,
				"points":      points,
			}
			buf, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(tuneOpts.json, append(buf, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", tuneOpts.json)
		}
	case "svm":
		points, err := bench.SVMCrossover()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatSVMTable(points))
		if svmJSON != "" {
			doc := map[string]any{
				"description": "explicit copies vs demand-paged shared virtual memory (internal/svm) on an iterative touch workload, sparse reuse to bulk streaming; regenerate with: go run ./cmd/cashmere-bench -experiment svm -svm-json <file>",
				"config": map[string]any{
					"device": "gtx480", "buffer_bytes": 48 << 20, "iterations": 6,
					"protocols": []string{"write-invalidate", "region-ownership"},
				},
				"points": points,
			}
			buf, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(svmJSON, append(buf, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", svmJSON)
		}
	default:
		return fmt.Errorf("unknown experiment %q (use -list)", id)
	}
	return nil
}
