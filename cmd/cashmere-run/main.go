// Command cashmere-run executes one of the paper's four applications on a
// configurable simulated cluster and reports the achieved performance.
//
// Usage:
//
//	cashmere-run -app raytracer -nodes 16 -device gtx480 -variant opt
//	cashmere-run -app kmeans -cluster "10xgtx480,2xc2050,1xk20+xeon_phi"
//	cashmere-run -app nbody -nodes 4 -device k20 -gantt
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/bench"
	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/tune"
	"cashmere/internal/svm"
	"cashmere/internal/trace"
)

func main() {
	var (
		app        = flag.String("app", "raytracer", "application: raytracer, matmul, kmeans, nbody")
		nodes      = flag.Int("nodes", 4, "number of homogeneous nodes (ignored with -cluster)")
		dev        = flag.String("device", "gtx480", "device type for homogeneous clusters")
		cluster    = flag.String("cluster", "", `heterogeneous spec, e.g. "10xgtx480,1xk20+xeon_phi"`)
		variant    = flag.String("variant", "opt", "satin, unopt or opt")
		gantt      = flag.Bool("gantt", false, "print a Gantt chart of the execution")
		traceF     = flag.String("trace", "", "write a Chrome trace_event JSON file (load in Perfetto)")
		metrics    = flag.Bool("metrics", false, "print the metrics dump after the run")
		seed       = flag.Int64("seed", 1, "simulation seed")
		partitions = flag.Int("partitions", 0,
			"split the simulation into N conservatively synchronized partitions (same trajectory; 0 = auto: 1 below 4 CPUs, else from GOMAXPROCS and node count)")
		tuneCacheF = flag.String("tune-cache", "",
			"auto-tune the app's kernel for every device type before the run (internal/mcl/tune) and persist the winners in this cache file")
		transportF = flag.String("transport", "explicit",
			"data-movement model: explicit (bulk copies) or svm (demand-paged shared virtual memory)")
		svmProto = flag.String("svm-protocol", "wi",
			"SVM coherence protocol: wi (write-invalidate) or ro (region-ownership)")
	)
	flag.Parse()

	v, err := parseVariant(*variant)
	die(err)

	// Resolve the application's kernel set and host program before building
	// the cluster, so the tuner can search against the exact kernel sources
	// that will run.
	var ks *codegen.KernelSet
	var run func(cl *core.Cluster) (apps.Result, error)
	switch *app {
	case "raytracer":
		ks, err = apps.RaytracerKernels(v)
		run = func(cl *core.Cluster) (apps.Result, error) { return apps.RunRaytracer(cl, apps.PaperRaytracer(), v) }
	case "matmul":
		ks, err = apps.MatmulKernels(v)
		run = func(cl *core.Cluster) (apps.Result, error) { return apps.RunMatmul(cl, apps.PaperMatmul(), v) }
	case "kmeans":
		ks, err = apps.KMeansKernels(v)
		run = func(cl *core.Cluster) (apps.Result, error) { return apps.RunKMeans(cl, apps.PaperKMeans(), v) }
	case "nbody":
		ks, err = apps.NBodyKernels(v)
		run = func(cl *core.Cluster) (apps.Result, error) { return apps.RunNBody(cl, apps.PaperNBody(), v) }
	default:
		die(fmt.Errorf("unknown application %q", *app))
	}
	die(err)

	cfg := core.DefaultConfig(*nodes, *dev)
	cfg.Seed = *seed
	cfg.Transport, err = core.ParseTransport(*transportF)
	die(err)
	switch *svmProto {
	case "wi":
		cfg.SVM.Protocol = svm.WriteInvalidate
	case "ro":
		cfg.SVM.Protocol = svm.RegionOwnership
	default:
		die(fmt.Errorf("unknown SVM protocol %q (want wi or ro)", *svmProto))
	}
	cfg.Record = *gantt || *traceF != ""
	cfg.TraceSched = *traceF != ""
	if v == apps.Satin {
		cfg.Satin.WorkersPerNode = 8
		// Satin's CPU leaves run for seconds; coarse idle backoff keeps the
		// event volume of the simulation bounded.
		cfg.Satin.MaxIdleBackoff = 50 * time.Millisecond
	}
	if *cluster != "" {
		specs, err := parseCluster(*cluster)
		die(err)
		cfg.Nodes = specs
	}
	cfg.Partitions = *partitions
	if cfg.Partitions == 0 {
		if cfg.Record {
			cfg.Partitions = 1 // tracing requires the sequential kernel
		} else {
			cfg.Partitions = core.AutoPartitions(len(cfg.Nodes), runtime.GOMAXPROCS(0))
		}
	}

	if *tuneCacheF != "" {
		// Tune the kernel once per distinct device type of the cluster,
		// reusing (and extending) the persistent cache. The search runs
		// before the cluster exists and simulates nothing, so trajectories
		// are identical at every -partitions setting.
		cache, e := tune.Load(*tuneCacheF)
		die(e)
		h := hdl.Library()
		seen := map[string]bool{}
		for _, nspec := range cfg.Nodes {
			for _, leaf := range nspec.Devices {
				if seen[leaf] {
					continue
				}
				seen[leaf] = true
				req, e := bench.TuneRequest(*app, leaf)
				die(e)
				req.Set = ks // tune the exact variant being run
				entry, e := cache.TuneOnce(req, h)
				die(e)
				local := ""
				if len(entry.Local) > 0 {
					local = fmt.Sprintf(" local %v", entry.Local)
				}
				fmt.Printf("tuned %s on %s: level %s%s (%d ns vs %d ns hand-picked)\n",
					ks.Name, leaf, entry.Level, local, entry.ServiceNs, entry.BaselineNs)
			}
		}
		die(cache.Save(*tuneCacheF))
		cfg.Tuning = cache
	}

	cl, err := core.NewCluster(cfg)
	die(err)
	die(cl.Register(ks))
	res, err := run(cl)
	die(err)

	fmt.Printf("%s (%s) on %d nodes: %v virtual, %.0f GFLOPS\n",
		*app, *variant, len(cfg.Nodes), res.Elapsed, res.GFLOPS)
	rt := cl.Runtime()
	fmt.Printf("jobs spawned %d, executed %d; steals ok %d / failed %d; cpu fallbacks %d\n",
		rt.JobsSpawned(), rt.JobsExecuted(), rt.StealsOK(), rt.StealsFailed(), cl.CPUFallbacks())
	for i := range cfg.Nodes {
		ns := cl.NodeState(i)
		for _, d := range ns.Devices {
			fmt.Printf("  node %2d %-12s launches=%4d kernel-busy=%v\n",
				i, d.Name(), d.Launches(), d.KernelBusy())
		}
	}
	if *gantt {
		fmt.Println(cl.Recorder().Gantt(trace.GanttOptions{Width: 110}))
	}
	if *traceF != "" {
		f, e := os.Create(*traceF)
		die(e)
		die(cl.Recorder().WriteChromeTrace(f))
		die(f.Close())
		fmt.Printf("wrote %s: %d spans, %d counter samples\n", *traceF, cl.Recorder().Len(), cl.Recorder().Samples())
	}
	if *metrics {
		fmt.Print(cl.CollectMetrics().Format())
	}
}

// parseVariant maps a -variant value to the application variant, rejecting
// anything but satin, unopt and opt.
func parseVariant(s string) (apps.Variant, error) {
	switch s {
	case "satin":
		return apps.Satin, nil
	case "unopt":
		return apps.CashmereUnoptimized, nil
	case "opt":
		return apps.CashmereOptimized, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want satin, unopt or opt)", s)
}

// parseCluster parses "10xgtx480,2xc2050,1xk20+xeon_phi": comma-separated
// node groups, each an optional count of at least 1 and "x", then one or
// more "+"-joined device names, none of them empty and at most
// core.MaxDevicesPerNode of them. The groups may add up to at most
// core.MaxNodes nodes; both bounds are checked before a group's specs are
// appended.
func parseCluster(s string) ([]core.NodeSpec, error) {
	var out []core.NodeSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		count := 1
		devs := part
		if i := strings.Index(part, "x"); i > 0 {
			if n, err := strconv.Atoi(part[:i]); err == nil {
				if n < 1 {
					return nil, fmt.Errorf("cluster spec %q: node count %d in %q, want at least 1", s, n, part)
				}
				count = n
				devs = part[i+1:]
			}
		}
		if count > core.MaxNodes-len(out) {
			return nil, fmt.Errorf("cluster spec %q: more than %d nodes (core.MaxNodes)", s, core.MaxNodes)
		}
		spec := core.NodeSpec{Devices: strings.Split(devs, "+")}
		if len(spec.Devices) > core.MaxDevicesPerNode {
			return nil, fmt.Errorf("cluster spec %q: %d devices on one node, more than %d (core.MaxDevicesPerNode)",
				s, len(spec.Devices), core.MaxDevicesPerNode)
		}
		for _, d := range spec.Devices {
			if d == "" {
				return nil, fmt.Errorf("cluster spec %q: empty device name in %q", s, part)
			}
		}
		for i := 0; i < count; i++ {
			out = append(out, spec)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty cluster spec %q", s)
	}
	return out, nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cashmere-run:", err)
		os.Exit(1)
	}
}
