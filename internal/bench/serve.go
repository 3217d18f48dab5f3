package bench

import (
	"fmt"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/serve"
	"cashmere/internal/simnet"
)

// ServeLoads is the default offered-load sweep of the serving experiment,
// as fractions of the modeled saturation throughput. The fine steps around
// 1.0 resolve the knee of the latency curve.
var ServeLoads = []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5}

// ServePoint is one row of the latency-vs-offered-load sweep.
type ServePoint struct {
	LoadFactor    float64 `json:"load_factor"`
	OfferedRPS    float64 `json:"offered_rps"`
	ThroughputRPS float64 `json:"throughput_rps"`
	GoodputRPS    float64 `json:"goodput_rps"`
	ShedPct       float64 `json:"shed_pct"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxQueue      int     `json:"max_queue"`
	Batches       int64   `json:"batches"`
	Coalesced     int64   `json:"coalesced_requests"`
}

// ServeSweepConfig parameterizes LatencyVsLoad.
type ServeSweepConfig struct {
	Nodes   int             // cluster size (one device per node)
	Device  string          // device catalog name
	Horizon simnet.Duration // arrival horizon per point
	Seed    int64           // base RNG seed (each point runs at Seed)
	Loads   []float64       // offered-load factors; nil = ServeLoads
	// Partitions splits each point's simulation into that many parallel
	// event loops (<= 1: sequential). Output is byte-identical either way.
	Partitions int
}

// DefaultServeSweep is the configuration behind `make bench-serve` and the
// committed BENCH_serve.json.
func DefaultServeSweep() ServeSweepConfig {
	return ServeSweepConfig{Nodes: 4, Device: "gtx480", Horizon: simnet.Duration(time.Second), Seed: 1}
}

// LatencyVsLoad sweeps the standard three-tenant serving workload across
// offered-load factors on a fresh cluster per point and reports the latency
// quantiles, goodput and shed fraction at each point — the hockey-stick
// curve of an online service: flat latency below saturation, then the knee
// where queues fill, shedding engages, and goodput plateaus while p99 hits
// the queue bound. Points run concurrently under the harness parallelism;
// output is byte-identical at any setting.
func LatencyVsLoad(cfg ServeSweepConfig) (Figure, []ServePoint, error) {
	loads := cfg.Loads
	if len(loads) == 0 {
		loads = ServeLoads
	}
	if cfg.Nodes < 1 {
		return Figure{}, nil, core.ErrNoNodes
	}

	// The capacity estimate is per-point-independent: compute it once so
	// every point scales the same base workload.
	base, err := serve.StandardWorkload(1)
	if err != nil {
		return Figure{}, nil, err
	}
	capacity, err := base.CapacityRPS(cfg.Device, cfg.Nodes)
	if err != nil {
		return Figure{}, nil, err
	}

	points := make([]ServePoint, len(loads))
	err = runParallel(len(loads), func(i int) error {
		w, err := serve.StandardWorkload(1)
		if err != nil {
			return err
		}
		if err := w.EstimateCosts(cfg.Device); err != nil {
			return err
		}
		w.ScaleRates(loads[i] * capacity)

		ccfg := core.DefaultConfig(cfg.Nodes, cfg.Device)
		ccfg.Seed = cfg.Seed
		ccfg.Partitions = cfg.Partitions
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
		if cfg.Horizon > 0 {
			scfg.Horizon = cfg.Horizon
		}
		rep, err := serve.Run(cl, scfg)
		if err != nil {
			return fmt.Errorf("load %.2f: %w", loads[i], err)
		}
		points[i] = ServePoint{
			LoadFactor:    loads[i],
			OfferedRPS:    rep.OfferedRPS,
			ThroughputRPS: rep.ThroughputRPS,
			GoodputRPS:    rep.GoodputRPS,
			ShedPct:       100 * rep.ShedFraction,
			P50Ms:         float64(rep.P50) / 1e6,
			P95Ms:         float64(rep.P95) / 1e6,
			P99Ms:         float64(rep.P99) / 1e6,
			MaxQueue:      rep.MaxDepth,
			Batches:       rep.Batches,
			Coalesced:     rep.BatchedReqs,
		}
		return nil
	})
	if err != nil {
		return Figure{}, nil, err
	}

	fig := Figure{
		ID:     "serve",
		Title:  "latency and goodput vs offered load (standard 3-tenant workload)",
		XLabel: "load factor",
		YLabel: "ms / req/s / %",
		Notes: []string{
			fmt.Sprintf("%d nodes of %s, modeled capacity %.0f req/s, horizon %v",
				cfg.Nodes, cfg.Device, capacity, simnet.Duration(cfg.Horizon)),
		},
	}
	x := make([]float64, len(points))
	var p50, p99, good, shed []float64
	for i, p := range points {
		x[i] = p.LoadFactor
		p50 = append(p50, p.P50Ms)
		p99 = append(p99, p.P99Ms)
		good = append(good, p.GoodputRPS)
		shed = append(shed, p.ShedPct)
	}
	fig.Series = []Series{
		{Label: "p50 (ms)", X: x, Y: p50},
		{Label: "p99 (ms)", X: x, Y: p99},
		{Label: "goodput (req/s)", X: x, Y: good},
		{Label: "shed (%)", X: x, Y: shed},
	}
	return fig, points, nil
}
