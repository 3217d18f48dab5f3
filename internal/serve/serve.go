// Package serve turns the simulated Cashmere cluster into an online,
// latency-governed service. Where the batch scheduler of Sec. III-B
// minimizes the makespan of a closed job set, this layer models the
// open-loop regime of a production deployment: requests arrive whether or
// not the cluster is ready, and the metric is the latency distribution —
// p50/p95/p99 against an SLO — not completion time.
//
// The subsystem has three parts, all running inside the discrete-event
// simulation:
//
//   - a deterministic workload generator: per-tenant arrival processes
//     (open-loop Poisson, bursty two-state MMPP, diurnal rate modulation)
//     driven by the per-simulation RNG, with each tenant drawing requests
//     from a weighted mix of kernel job classes (internal/apps kernels);
//
//   - a multi-tenant frontend: per-tenant token-bucket admission and
//     bounded queues with load shedding (retry-after backpressure),
//     weighted-fair queueing across tenants into the per-node device
//     schedulers, and small-job batching that coalesces queued requests of
//     the same job class into one kernel launch to amortize H2D setup;
//
//   - SLO accounting: log-bucketed mergeable latency histograms on virtual
//     time, per-tenant goodput/shed counters and queue-depth gauges, all
//     exported through trace counters and the CollectMetrics dump.
//
// The steady-state admit→dispatch path allocates nothing (pooled request
// records, intrusive FIFOs, linear-scan WFQ); `make bench-allocs` pins it.
package serve

import (
	"fmt"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/tune"
	"cashmere/internal/network"
	"cashmere/internal/simnet"
)

// JobClass is one kind of request a tenant issues: a kernel launch with
// fixed parameters and transfer sizes.
type JobClass struct {
	// Name labels spans and reports.
	Name string
	// Kernel is the registered kernel-set name the request launches.
	Kernel string
	// Params are the launch's scalar kernel parameters.
	Params map[string]int64
	// BatchParam names the parameter that scales linearly when several
	// requests of this class coalesce into one launch (k requests multiply
	// it by k). Empty disables batching for the class.
	BatchParam string
	// InBytes/OutBytes are the per-request host↔device transfer sizes.
	InBytes, OutBytes int64
	// Flops is the per-request useful operation count (goodput accounting).
	Flops float64
	// CostHint is the estimated per-request service time; it is the WFQ
	// cost unit and the token-bucket work weight. EstimateCosts fills it
	// from the device cost model when zero.
	CostHint simnet.Duration
	// MaxBatch, when > 0, caps batching for this class specifically,
	// overriding Config.MaxBatch. ApplyTuning sizes it from the tuned
	// per-request service time so a full batch stays within half the SLO —
	// cheap tuned classes batch deeper, expensive ones stop coalescing.
	MaxBatch int
	// Weight is the selection weight of this class within the tenant mix.
	Weight int
}

// ArrivalKind selects the arrival process of a tenant.
type ArrivalKind int

// Arrival processes.
const (
	// Poisson is an open-loop Poisson process: exponential inter-arrival
	// gaps at a fixed mean rate.
	Poisson ArrivalKind = iota
	// MMPP is a two-state Markov-modulated Poisson process: the tenant
	// alternates between a quiet and a burst state with exponential dwell
	// times; the time-averaged rate equals RatePerSec.
	MMPP
	// Diurnal modulates the Poisson rate sinusoidally over virtual time
	// (a compressed day), so the run sweeps through under- and overload.
	Diurnal
	// Replay offers requests at the exact offsets of an explicit schedule
	// (ArrivalSpec.Trace), optionally tiled every TracePeriod — the
	// trace-replay workload source (see replay.go).
	Replay
)

func (k ArrivalKind) String() string {
	switch k {
	case MMPP:
		return "mmpp"
	case Diurnal:
		return "diurnal"
	case Replay:
		return "replay"
	default:
		return "poisson"
	}
}

// ArrivalKindFromString parses an arrival-process name.
func ArrivalKindFromString(s string) (ArrivalKind, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "mmpp":
		return MMPP, nil
	case "diurnal":
		return Diurnal, nil
	case "replay":
		return Replay, nil
	}
	return Poisson, fmt.Errorf("serve: unknown arrival process %q", s)
}

// ArrivalSpec configures a tenant's arrival process.
type ArrivalSpec struct {
	Kind ArrivalKind
	// RatePerSec is the mean offered rate in requests per second of
	// virtual time.
	RatePerSec float64
	// BurstFactor (MMPP) is the rate multiplier of the burst state (>1).
	BurstFactor float64
	// BurstFraction (MMPP) is the long-run fraction of time in the burst
	// state (0..1).
	BurstFraction float64
	// CycleMean (MMPP) is the mean quiet+burst cycle length.
	CycleMean simnet.Duration
	// Period (Diurnal) is the modulation period.
	Period simnet.Duration
	// Swing (Diurnal) is the modulation amplitude as a fraction of the
	// mean rate (0..1): rate(t) = Rate * (1 + Swing*sin(2πt/Period)).
	Swing float64
	// Trace (Replay) is the explicit arrival schedule, sorted by offset.
	Trace []TraceEvent
	// TracePeriod (Replay) tiles the trace: after each pass the schedule
	// repeats shifted by this period until the horizon. Zero plays it once.
	TracePeriod simnet.Duration
}

// TenantSpec configures one tenant of the service.
type TenantSpec struct {
	// Name identifies the tenant in reports and metrics.
	Name string
	// Weight is the tenant's weighted-fair-queueing share.
	Weight int
	// Arrival is the tenant's arrival process.
	Arrival ArrivalSpec
	// BucketRatePerSec is the token-bucket refill rate (requests/s of
	// virtual time); arrivals beyond it are shed with a retry-after hint.
	// Zero disables throttling for the tenant.
	BucketRatePerSec float64
	// BucketBurst is the bucket depth (max tokens).
	BucketBurst int
	// QueueLimit bounds the tenant's pending queue; arrivals beyond it are
	// shed (overload backpressure). Zero means DefaultQueueLimit.
	QueueLimit int
	// Mix is the weighted set of job classes the tenant draws from.
	Mix []JobClass
}

// DefaultQueueLimit bounds a tenant queue when TenantSpec.QueueLimit is 0.
const DefaultQueueLimit = 256

// Config describes one serving experiment.
type Config struct {
	// Tenants are the service's tenants.
	Tenants []TenantSpec
	// Horizon is the virtual-time span during which requests arrive; the
	// run then drains admitted requests and stops.
	Horizon simnet.Duration
	// MaxBatch caps how many same-class requests coalesce into one launch
	// (1 disables batching).
	MaxBatch int
	// SLO is the latency target; completions within it count as goodput.
	SLO simnet.Duration
	// Retry re-offers a shed request once after its retry-after hint
	// (client retry model). The retried arrival is counted separately.
	Retry bool
	// Autoscale, when non-nil, enables the elastic autoscaler: nodes are
	// added under queue/latency pressure and drained back out when idle
	// (see AutoscaleConfig).
	Autoscale *AutoscaleConfig
	// Chaos, when non-nil, enables deterministic fault injection: network
	// partitions, device stragglers and correlated crashes (see
	// ChaosConfig).
	Chaos *ChaosConfig
}

// Workload pairs the kernel sets a serving experiment must register with
// the tenant population issuing requests against them.
type Workload struct {
	KernelSets []*codegen.KernelSet
	Tenants    []TenantSpec
}

// EstimateCosts fills every zero JobClass.CostHint with the modeled
// per-request service time on the named device — kernel time plus the PCIe
// transfers of the request's working set (the static-speed bootstrap of the
// serving layer, mirroring the batch scheduler's speed table). Network
// transfer to a remote node is not included here; CapacityRPS folds it in
// when sizing offered load.
func (w *Workload) EstimateCosts(dev string) error {
	spec, err := device.Lookup(dev)
	if err != nil {
		return err
	}
	byName := map[string]*codegen.KernelSet{}
	for _, ks := range w.KernelSets {
		byName[ks.Name] = ks
	}
	for ti := range w.Tenants {
		mix := w.Tenants[ti].Mix
		for ci := range mix {
			if mix[ci].CostHint > 0 {
				continue
			}
			ks, ok := byName[mix[ci].Kernel]
			if !ok {
				return fmt.Errorf("serve: class %s uses unregistered kernel %q", mix[ci].Name, mix[ci].Kernel)
			}
			c, err := ks.Compile(spec.Leaf, hdl.Library())
			if err != nil {
				return err
			}
			cost, err := c.Cost(mix[ci].Params)
			if err != nil {
				return err
			}
			mix[ci].CostHint = spec.KernelTime(cost) +
				spec.TransferTime(mix[ci].InBytes) + spec.TransferTime(mix[ci].OutBytes)
		}
	}
	return nil
}

// ApplyTuning refines the workload from an auto-tuning cache: every
// class whose kernel has a cached winner for the device gets its
// CostHint recomputed at the tuned configuration (tuned level, tuned launch
// geometry, geometry-aware cost model), and batchable classes get a
// per-class MaxBatch sized so a full batch of tuned requests fits in half
// the SLO. Classes without a cached winner keep the static estimate.
func (w *Workload) ApplyTuning(cache *tune.Cache, dev string, slo simnet.Duration) error {
	if cache == nil {
		return nil
	}
	spec, err := device.Lookup(dev)
	if err != nil {
		return err
	}
	h := hdl.Library()
	byName := map[string]*codegen.KernelSet{}
	for _, ks := range w.KernelSets {
		byName[ks.Name] = ks
	}
	for ti := range w.Tenants {
		mix := w.Tenants[ti].Mix
		for ci := range mix {
			ks, ok := byName[mix[ci].Kernel]
			if !ok {
				continue
			}
			e, ok := cache.Lookup(tune.Key(ks, spec))
			if !ok {
				continue
			}
			c, err := e.Compile(ks, spec.Leaf, h)
			if err != nil {
				return err
			}
			cost, err := c.Cost(mix[ci].Params)
			if err != nil {
				return err
			}
			mix[ci].CostHint = spec.KernelTime(cost) +
				spec.TransferTime(mix[ci].InBytes) + spec.TransferTime(mix[ci].OutBytes)
			if mix[ci].BatchParam != "" && mix[ci].CostHint > 0 && slo > 0 {
				nb := int(slo / 2 / mix[ci].CostHint)
				if nb < 1 {
					nb = 1
				}
				if nb > 16 {
					nb = 16
				}
				mix[ci].MaxBatch = nb
			}
		}
	}
	return nil
}

// CapacityRPS estimates the saturation throughput of a cluster of nDevices
// devices of the given type under this workload: the number of requests per
// second the devices can serve when every tenant draws classes at its mix
// weights. Dispatch to a remote node also pays the interconnect transfer of
// the request's working set (QDR InfiniBand, the default fabric), weighted
// by the fraction of devices that are remote. It is the scale against which
// offered-load factors are set.
func (w *Workload) CapacityRPS(dev string, nDevices int) (float64, error) {
	if err := w.EstimateCosts(dev); err != nil {
		return 0, err
	}
	net := network.QDRInfiniBand()
	remoteFrac := 0.0
	if nDevices > 1 {
		remoteFrac = float64(nDevices-1) / float64(nDevices)
	}
	// Mean service time per request across the tenant population, weighting
	// tenants by offered rate and classes by mix weight.
	var totRate, weighted float64
	for _, t := range w.Tenants {
		var wsum, tsum float64
		for _, c := range t.Mix {
			svc := float64(c.CostHint) +
				remoteFrac*float64(net.TransferTime(c.InBytes)+net.TransferTime(c.OutBytes))
			wsum += float64(c.Weight)
			tsum += float64(c.Weight) * svc
		}
		if wsum == 0 {
			continue
		}
		rate := t.Arrival.RatePerSec
		if rate <= 0 {
			rate = 1
		}
		totRate += rate
		weighted += rate * tsum / wsum
	}
	if totRate == 0 || weighted == 0 {
		return 0, fmt.Errorf("serve: workload has no rated tenants")
	}
	meanService := weighted / totRate / 1e9 // seconds
	return float64(nDevices) / meanService, nil
}

// ScaleRates multiplies every tenant's offered rate and token-bucket rate
// by f (used by the latency-vs-load sweep).
func (w *Workload) ScaleRates(f float64) {
	for i := range w.Tenants {
		w.Tenants[i].Arrival.RatePerSec *= f
		w.Tenants[i].BucketRatePerSec *= f
	}
}

// StandardWorkload is the default three-tenant population used by
// cashmere-serve and the latency-vs-load experiment:
//
//   - "interactive": high WFQ weight, small matmul requests, Poisson
//     arrivals — the latency-sensitive tenant;
//   - "analytics": low weight, a mix of k-means assignment scans and
//     larger matmuls, bursty MMPP arrivals — the throughput tenant;
//   - "batchy": lowest weight, diurnal arrivals of medium matmuls — the
//     background tenant that fills troughs.
//
// Rates are per-tenant shares of `total` requests/s.
func StandardWorkload(total float64) (*Workload, error) {
	mmSmall := JobClass{
		Name: "mm256", Kernel: "matmul", BatchParam: "n",
		Params:  map[string]int64{"n": 256, "m": 256, "p": 256},
		InBytes: 4 * (256*256 + 256*256 + 256*256), OutBytes: 4 * 256 * 256,
		Flops: 2 * 256 * 256 * 256, Weight: 1,
	}
	mmMed := JobClass{
		Name: "mm512", Kernel: "matmul", BatchParam: "n",
		Params:  map[string]int64{"n": 512, "m": 512, "p": 512},
		InBytes: 4 * (512*512 + 512*512 + 512*512), OutBytes: 4 * 512 * 512,
		Flops: 2 * 512 * 512 * 512, Weight: 1,
	}
	kmScan := JobClass{
		Name: "km64k", Kernel: "kmeans", BatchParam: "n",
		Params:  map[string]int64{"n": 64 * 1024, "k": 256, "d": 4},
		InBytes: 4 * 64 * 1024 * 4, OutBytes: 4 * 64 * 1024,
		Flops: 3 * 256 * 4 * 64 * 1024, Weight: 2,
	}

	mm, err := codegen.NewKernelSet("matmul", apps.MatmulPerfect, apps.MatmulGPU)
	if err != nil {
		return nil, err
	}
	km, err := codegen.NewKernelSet("kmeans", apps.KMeansPerfect, apps.KMeansGPU)
	if err != nil {
		return nil, err
	}

	return &Workload{
		KernelSets: []*codegen.KernelSet{mm, km},
		Tenants: []TenantSpec{
			{
				Name: "interactive", Weight: 4,
				Arrival:          ArrivalSpec{Kind: Poisson, RatePerSec: 0.5 * total},
				BucketRatePerSec: 0.6 * total, BucketBurst: 32,
				QueueLimit: 128,
				Mix:        []JobClass{mmSmall},
			},
			{
				Name: "analytics", Weight: 2,
				Arrival: ArrivalSpec{
					Kind: MMPP, RatePerSec: 0.3 * total,
					BurstFactor: 4, BurstFraction: 0.2, CycleMean: 200 * time.Millisecond,
				},
				BucketRatePerSec: 0.45 * total, BucketBurst: 64,
				QueueLimit: 192,
				Mix:        []JobClass{kmScan, mmMed},
			},
			{
				Name: "batchy", Weight: 1,
				Arrival: ArrivalSpec{
					Kind: Diurnal, RatePerSec: 0.2 * total,
					Period: 500 * time.Millisecond, Swing: 0.8,
				},
				BucketRatePerSec: 0.3 * total, BucketBurst: 16,
				QueueLimit: 96,
				Mix:        []JobClass{mmMed},
			},
		},
	}, nil
}

// DefaultConfig returns the serving configuration used by cashmere-serve:
// the standard workload's tenants, a 1-second horizon, batching up to 4,
// and a 50ms SLO.
func DefaultConfig(w *Workload) Config {
	return Config{
		Tenants:  w.Tenants,
		Horizon:  time.Second,
		MaxBatch: 4,
		SLO:      50 * time.Millisecond,
		Retry:    true,
	}
}
