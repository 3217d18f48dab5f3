// Command cashmere-serve runs the online multi-tenant serving experiment on
// the simulated cluster: per-tenant arrival processes offer kernel requests
// against token-bucket admission, weighted-fair queueing and small-job
// batching, with SLO-tracked latency histograms on virtual time.
//
// A single run prints the serving report (and optionally the full metrics
// dump or a Chrome trace):
//
//	cashmere-serve -nodes 4 -device gtx480 -load 0.8 -metrics
//
// The sweep mode regenerates BENCH_serve.json — the latency-vs-offered-load
// curve behind the serving figure plus the static-vs-autoscaled elasticity
// rows (`make bench-serve`):
//
//	cashmere-serve -sweep -out BENCH_serve.json
//
// Elastic capacity and fault injection on a single run:
//
//	cashmere-serve -nodes 4 -arrival diurnal -autoscale   # scale with the swing
//	cashmere-serve -nodes 4 -chaos                        # partitions/stragglers/crashes
//	cashmere-serve -replay synth                          # trace-replay arrivals
//
// Identical flags and -seed produce byte-identical output, including the
// latency quantiles, at any -parallel or -partitions setting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"cashmere/internal/bench"
	"cashmere/internal/core"
	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/tune"
	"cashmere/internal/serve"
	"cashmere/internal/simnet"
)

type sweepReport struct {
	Description string             `json:"description"`
	Date        string             `json:"date"`
	Nodes       int                `json:"nodes"`
	Device      string             `json:"device"`
	CapacityRPS float64            `json:"capacity_rps"`
	HorizonSec  float64            `json:"horizon_sec"`
	Seed        int64              `json:"seed"`
	Rows        []bench.ServePoint `json:"rows"`
	Autoscale   *autoscaleSection  `json:"autoscale,omitempty"`
}

type autoscaleSection struct {
	Description string                 `json:"description"`
	Swing       float64                `json:"swing"`
	PeriodSec   float64                `json:"period_sec"`
	HorizonSec  float64                `json:"horizon_sec"`
	Rows        []bench.AutoscalePoint `json:"rows"`
}

func main() {
	nodes := flag.Int("nodes", 4, "cluster size (one device per node)")
	dev := flag.String("device", "gtx480", "device catalog name")
	duration := flag.Duration("duration", time.Second, "arrival horizon in virtual time")
	load := flag.Float64("load", 0.8, "offered load as a fraction of modeled capacity")
	arrival := flag.String("arrival", "", "force every tenant's arrival process (poisson, mmpp, diurnal)")
	seed := flag.Int64("seed", 1, "simulation RNG seed")
	metrics := flag.Bool("metrics", false, "print the full metrics dump after the report")
	traceF := flag.String("trace", "", "write a Chrome trace of the run")
	sweep := flag.Bool("sweep", false, "run the latency-vs-load and elasticity sweeps instead of a single run")
	autoscale := flag.Bool("autoscale", false, "enable the elastic autoscaler on a single run")
	chaos := flag.Bool("chaos", false, "enable the chaos harness (partitions, stragglers, crashes) on a single run")
	replay := flag.String("replay", "", "replay arrivals from a trace file naming every tenant, or \"synth\" for a synthesized schedule")
	out := flag.String("out", "BENCH_serve.json", "sweep output path")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"number of sweep points simulated concurrently; output is identical at any setting")
	partitions := flag.Int("partitions", 0,
		"split each simulation into N conservatively synchronized partitions; output is identical at any setting (0 = auto: 1 below 4 CPUs, else from GOMAXPROCS and node count)")
	tuneF := flag.Bool("tune", false,
		"auto-tune every workload kernel for the device before serving: tuned levels and launch geometries replace the hand-picked compiles, and per-class batch caps derive from the tuned costs")
	flag.Parse()
	bench.SetParallelism(*parallel)
	if *partitions == 0 {
		if *traceF != "" {
			*partitions = 1 // tracing requires the sequential kernel
		} else {
			*partitions = core.AutoPartitions(*nodes, runtime.GOMAXPROCS(0))
		}
	}

	if *sweep {
		if err := runSweep(*nodes, *dev, *duration, *seed, *partitions, *out); err != nil {
			fail(err)
		}
		return
	}
	opts := runOpts{
		autoscale: *autoscale, chaos: *chaos, replay: *replay,
		metrics: *metrics, traceF: *traceF, tune: *tuneF,
	}
	if err := runOnce(*nodes, *dev, *duration, *load, *arrival, *seed, *partitions, opts); err != nil {
		fail(err)
	}
}

// runOpts bundles the single-run feature switches.
type runOpts struct {
	autoscale bool
	chaos     bool
	replay    string
	metrics   bool
	traceF    string
	tune      bool
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cashmere-serve:", err)
	os.Exit(1)
}

func runOnce(nodes int, dev string, horizon time.Duration, load float64, arrival string, seed int64, partitions int, opts runOpts) error {
	if !(load > 0) || math.IsInf(load, 1) {
		return fmt.Errorf("-load must be a positive finite fraction of capacity, got %v", load)
	}
	w, err := serve.StandardWorkload(1)
	if err != nil {
		return err
	}
	if arrival != "" {
		kind, err := serve.ArrivalKindFromString(arrival)
		if err != nil {
			return err
		}
		for i := range w.Tenants {
			w.Tenants[i].Arrival.Kind = kind
		}
	}
	var tuning *tune.Cache
	if opts.tune {
		// Tune every workload kernel for the device, refine the per-class
		// cost hints and batch caps from the winners, and hand the cache to
		// the cluster so initialization compiles the tuned forms. Runs before
		// CapacityRPS so offered load is sized against tuned costs.
		tuning = tune.NewCache()
		h := hdl.Library()
		slo := serve.DefaultConfig(w).SLO
		for _, ks := range w.KernelSets {
			req, err := tuneRequestFor(w, ks, dev)
			if err != nil {
				return err
			}
			if _, err := tuning.TuneOnce(req, h); err != nil {
				return err
			}
		}
		if err := w.ApplyTuning(tuning, dev, slo); err != nil {
			return err
		}
	}
	capacity, err := w.CapacityRPS(dev, nodes)
	if err != nil {
		return err
	}
	w.ScaleRates(load * capacity)
	var replayed map[string][]serve.TraceEvent // a trace file's arrivals
	if opts.replay != "" {
		var traces map[string][]serve.TraceEvent
		if opts.replay == "synth" {
			traces = serve.SynthesizeTrace(w.Tenants, simnet.Duration(horizon), seed)
		} else {
			f, err := os.Open(opts.replay)
			if err != nil {
				return err
			}
			traces, err = serve.ParseTrace(f)
			f.Close()
			if err != nil {
				return err
			}
			replayed = traces
		}
		if err := w.ApplyTrace(traces, 0); err != nil {
			return err
		}
	}

	ccfg := core.DefaultConfig(nodes, dev)
	ccfg.Seed = seed
	ccfg.Partitions = partitions
	ccfg.Tuning = tuning
	// Tracing is the only consumer that needs the recorder; keeping it off
	// otherwise keeps the -metrics dump free of recorder counters and thus
	// byte-identical across -partitions settings.
	ccfg.Record = opts.traceF != ""
	cl, err := core.NewCluster(ccfg)
	if err != nil {
		return err
	}
	for _, ks := range w.KernelSets {
		if err := cl.Register(ks); err != nil {
			return err
		}
	}
	scfg := serve.DefaultConfig(w)
	scfg.Horizon = simnet.Duration(horizon)
	if opts.autoscale {
		scfg.Autoscale = serve.DefaultAutoscale()
	}
	if opts.chaos {
		scfg.Chaos = &serve.ChaosConfig{Seed: seed}
	}
	rep, err := serve.Run(cl, scfg)
	if err != nil {
		return err
	}
	fmt.Println(header(nodes, dev, capacity, load, replayed, horizon))
	fmt.Print(rep.Format())

	if opts.traceF != "" {
		f, err := os.Create(opts.traceF)
		if err == nil {
			err = cl.Recorder().WriteChromeTrace(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cashmere-serve: wrote %s: %d spans\n", opts.traceF, cl.Recorder().Len())
	}
	if opts.metrics {
		m := cl.CollectMetrics()
		rep.FillMetrics(m)
		fmt.Print(m.Format())
	}
	return nil
}

// header is the report's first line: the cluster, its modeled capacity
// and the load offered to it. A replayed trace file fixes the arrivals, so
// its load is the file's requests within the horizon, their rate over the
// horizon and that rate's ratio to capacity; otherwise (replayed nil) the
// load is -load, the fraction of capacity every tenant's rate was scaled to.
func header(nodes int, dev string, capacity, load float64, replayed map[string][]serve.TraceEvent, horizon time.Duration) string {
	h := fmt.Sprintf("%d x %s, modeled capacity %.0f req/s", nodes, dev, capacity)
	if replayed == nil {
		return fmt.Sprintf("%s, offered %.2fx", h, load)
	}
	n := 0
	for _, evs := range replayed {
		for _, ev := range evs {
			if ev.At <= simnet.Duration(horizon) {
				n++
			}
		}
	}
	rate := float64(n) / horizon.Seconds()
	return fmt.Sprintf("%s, replayed %d requests (%.0f req/s, %.2fx)", h, n, rate, rate/capacity)
}

// tuneRequestFor builds a tuning request for one workload kernel, using the
// heaviest job class of that kernel (largest input) as the representative
// launch.
func tuneRequestFor(w *serve.Workload, ks *codegen.KernelSet, dev string) (tune.Request, error) {
	spec, err := device.Lookup(dev)
	if err != nil {
		return tune.Request{}, err
	}
	req := tune.Request{Set: ks, Device: spec}
	for _, t := range w.Tenants {
		for _, c := range t.Mix {
			if c.Kernel != ks.Name {
				continue
			}
			if req.Params == nil || c.InBytes > req.InBytes {
				req.Params, req.InBytes, req.OutBytes = c.Params, c.InBytes, c.OutBytes
			}
		}
	}
	if req.Params == nil {
		return tune.Request{}, fmt.Errorf("no job class uses kernel %q", ks.Name)
	}
	return req, nil
}

func runSweep(nodes int, dev string, horizon time.Duration, seed int64, partitions int, out string) error {
	cfg := bench.DefaultServeSweep()
	cfg.Nodes = nodes
	cfg.Device = dev
	cfg.Horizon = simnet.Duration(horizon)
	cfg.Seed = seed
	cfg.Partitions = partitions
	fig, points, err := bench.LatencyVsLoad(cfg)
	if err != nil {
		return err
	}
	fmt.Print(fig.Format())

	acfg := bench.DefaultAutoscaleSweep()
	acfg.Nodes = nodes
	acfg.Device = dev
	acfg.Seed = seed
	acfg.Partitions = partitions
	afig, apoints, err := bench.NodeHoursVsLoad(acfg)
	if err != nil {
		return err
	}
	fmt.Print(afig.Format())

	w, err := serve.StandardWorkload(1)
	if err != nil {
		return err
	}
	capacity, err := w.CapacityRPS(dev, nodes)
	if err != nil {
		return err
	}
	rep := sweepReport{
		Description: "Latency vs offered load for the online serving layer: the standard " +
			"3-tenant workload (interactive Poisson, bursty MMPP analytics, diurnal batch) swept " +
			"across fractions of the modeled saturation throughput. Below the knee p99 stays " +
			"bounded; above it token buckets and bounded queues shed load and goodput plateaus. " +
			"Regenerate with: make bench-serve",
		Date:        time.Now().Format("2006-01-02"),
		Nodes:       nodes,
		Device:      dev,
		CapacityRPS: capacity,
		HorizonSec:  horizon.Seconds(),
		Seed:        seed,
		Rows:        points,
		Autoscale: &autoscaleSection{
			Description: "Elasticity under a 5x diurnal swing: the same workload on the static " +
				"full fleet vs the autoscaler draining to a 2-node floor. The autoscaled fleet " +
				"holds the SLO at substantially fewer provisioned node-seconds. " +
				"Regenerate with: make bench-serve",
			Swing:      acfg.Swing,
			PeriodSec:  simnet.Duration(acfg.Period).Seconds(),
			HorizonSec: simnet.Duration(acfg.Horizon).Seconds(),
			Rows:       apoints,
		},
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cashmere-serve: wrote %s\n", out)
	return nil
}
