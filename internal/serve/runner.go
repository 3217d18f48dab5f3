package serve

import (
	"fmt"
	"strings"

	"cashmere/internal/core"
	"cashmere/internal/ocl"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// KindServe is the trace span kind of one served request (admission to
// completion).
const KindServe = trace.Kind("serve")

// Run executes one serving experiment on the cluster: generators offer
// requests for cfg.Horizon of virtual time, dispatchers drain the frontend
// into the per-node device schedulers, and the run ends when the last
// admitted request completes. The workload's kernel sets must already be
// registered on cl. The run goes through Cluster.RunServices: serving
// spawns no stealable job, so no idle Satin worker probes for one.
//
// A given (cluster config, serve config, seed) triple always produces the
// same trajectory, so the returned report — including latency quantiles —
// is byte-stable across runs and harness parallelism.
func Run(cl *core.Cluster, cfg Config) (*Report, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants configured")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("serve: non-positive horizon")
	}
	for _, t := range cfg.Tenants {
		if len(t.Mix) == 0 {
			return nil, fmt.Errorf("serve: tenant %q has an empty job mix", t.Name)
		}
		for _, c := range t.Mix {
			if c.Graph != nil && c.BatchParam != "" {
				return nil, fmt.Errorf("serve: tenant %q class %q: graph classes cannot batch", t.Name, c.Name)
			}
		}
	}

	k := cl.Kernel()
	rt := cl.Runtime()
	fe := NewFrontend(k, cfg, cl.Recorder())

	// Remote nodes execute batches via the serve_batch/serve_done protocol
	// (see remote.go); the handler must be installed before the simulation
	// starts so every partition's comm loop observes it.
	disp := newDispatch(fe, cfg, rt)
	if rt.Nodes() > 1 {
		rt.SetMessageHandler(disp.handle)
	}
	slots := func(n int) int {
		if cfg.DispatchersPerNode > 0 {
			return cfg.DispatchersPerNode
		}
		if d := len(cl.NodeState(n).Devices); d > 0 {
			return d
		}
		return 1
	}
	// Proxy reply channels are node-0 state; allocate them before Run.
	type proxySlot struct{ node, proxy int }
	var proxies []proxySlot
	for n := 1; n < rt.Nodes(); n++ {
		for i := 0; i < slots(n); i++ {
			proxies = append(proxies, proxySlot{node: n, proxy: disp.newProxy(k, n)})
		}
	}

	// Elastic capacity: the autoscaler and/or the chaos harness share one
	// node-0 controller holding per-node phases and billing.
	var (
		el          *elastic
		asCfg       AutoscaleConfig
		chaosCfg    ChaosConfig
		chaosScript []ChaosEvent
	)
	if cfg.Autoscale != nil || cfg.Chaos != nil {
		initial := rt.Nodes()
		if cfg.Autoscale != nil {
			asCfg = cfg.Autoscale.norm(rt.Nodes())
			initial = asCfg.Initial
		}
		el = newElastic(fe, disp, rt, slots, initial)
		if cfg.Chaos != nil {
			if err := cfg.Chaos.checkScript(rt.Nodes()); err != nil {
				return nil, err
			}
			chaosCfg = cfg.Chaos.norm()
			if la := rt.Scheduler().Lookahead(); simnet.Duration(chaosCfg.PropDelay) < la {
				return nil, fmt.Errorf("serve: chaos PropDelay %v below scheduler lookahead %v", chaosCfg.PropDelay, la)
			}
			chaosScript = chaosCfg.script(rt.Nodes(), cfg.Horizon)
		}
	}
	// Device handles for straggler injection, captured before the run; the
	// devices themselves are only ever touched from their own kernels.
	var devs [][]*ocl.Device
	if len(chaosScript) > 0 {
		devs = make([][]*ocl.Device, rt.Nodes())
		for n := 0; n < rt.Nodes(); n++ {
			devs[n] = cl.NodeState(n).Devices
		}
	}

	_, end, err := cl.RunServices(func(ctx *satin.Context) any {
		// The generators run on node 0, with the frontend they feed.
		fe.gensLive = len(cfg.Tenants)
		for ti := range cfg.Tenants {
			g := &generator{f: fe, tenant: ti}
			if cfg.Tenants[ti].Arrival.Kind != Replay {
				g.arr = newArrival(cfg.Tenants[ti].Arrival, k.Rand())
			}
			k.SpawnStepOn(0, "serve.gen."+cfg.Tenants[ti].Name, g.step)
		}
		// Every dispatcher slot lives on node 0 and runs one loop: node-0
		// slots execute batches in place, the others over the network.
		for i := 0; i < slots(0); i++ {
			rt.GoOn(0, func(c *satin.Context) { disp.dispatchLoop(c, 0, -1) })
		}
		for _, ps := range proxies {
			ps := ps
			rt.GoOn(0, func(c *satin.Context) { disp.dispatchLoop(c, ps.node, ps.proxy) })
		}
		if el != nil && cfg.Autoscale != nil {
			rt.GoOn(0, func(c *satin.Context) { el.autoscaleLoop(c, asCfg) })
		}
		if el != nil && len(chaosScript) > 0 {
			rt.GoOn(0, func(c *satin.Context) { el.chaosLoop(c, chaosCfg, chaosScript, devs) })
		}
		fe.done.Await(ctx.Proc())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fe.report(cfg, end), nil
}

// generator is one tenant's arrival process, a step process: each wake
// offers the arrival it was armed for and arms the next one, until the
// horizon. A stochastic tenant draws its gaps from arr; a Replay tenant
// walks its trace (see replayStep).
type generator struct {
	f      *Frontend
	tenant int
	arr    *arrival // gap source; nil for a Replay tenant
	due    bool     // a drawn arrival is due at this wake

	// Replay position: the start of the current trace tile and the index
	// of the next event in it.
	base simnet.Time
	next int
}

func (g *generator) step(p *simnet.Proc) bool {
	var more bool
	if g.arr != nil {
		more = g.drawStep(p)
	} else {
		more = g.replayStep(p)
	}
	if !more {
		g.f.gensLive--
		g.f.checkDone(p.Kernel())
	}
	return more
}

// drawStep offers the arrival due now, if any, drawing its class from the
// tenant mix, then draws the gap to the next one and arms its wake; it
// reports false once that arrival would fall past the horizon.
func (g *generator) drawStep(p *simnet.Proc) bool {
	f, k := g.f, p.Kernel()
	if g.due {
		t := &f.tenants[g.tenant]
		class := 0
		if t.totalCum > 1 {
			pick := k.Rand().Intn(t.totalCum)
			for class < len(t.cum)-1 && pick >= t.cum[class] {
				class++
			}
		}
		f.offer(k, p.Now(), g.tenant, class, false)
	}
	d := g.arr.next(p.Now())
	if p.Now().Add(d) > simnet.Time(f.cfg.Horizon) {
		return false
	}
	g.due = true
	p.Arm(d)
	return true
}

// offer presents one arrival to admission, waking an idle dispatcher on
// success and scheduling at most one client retry on shed.
func (f *Frontend) offer(k *simnet.Kernel, now simnet.Time, tenant, class int, retried bool) {
	if retried {
		f.tenants[tenant].Retries++
	}
	r, v, retryAfter := f.Admit(now, tenant, class)
	if v == Admitted {
		r.Retried = retried
		if !f.work.Empty() {
			f.work.WakeAll(k)
		}
		return
	}
	if f.cfg.Retry && !retried {
		f.pendingRetries++
		k.CallAfter(retryAfter, func() {
			f.pendingRetries--
			f.offer(k, k.Now(), tenant, class, true)
			f.checkDone(k)
		})
	}
}

// checkDone completes the experiment future once everything drained, and
// wakes parked dispatchers so they observe Drained and exit.
func (f *Frontend) checkDone(k *simnet.Kernel) {
	if f.done != nil && !f.done.Done() && f.Drained() {
		f.done.Complete(struct{}{})
		f.work.WakeAll(k)
		if f.el != nil {
			// Slots gated on out-of-rotation nodes observe done and exit.
			f.el.wakeGates(k)
		}
	}
}

// TenantReport is the per-tenant slice of a serving report.
type TenantReport struct {
	Name         string
	Offered      int64
	Admitted     int64
	ShedThrottle int64
	ShedQueue    int64
	Retries      int64
	Completed    int64
	Errors       int64
	SLOOk        int64
	MaxQueue     int
	P50, P95     int64 // ns
	P99, Mean    int64 // ns
	Max          int64 // ns
}

// ElasticReport is the capacity slice of a serving report, present when the
// autoscaler or the chaos harness ran.
type ElasticReport struct {
	// NodeSeconds is the provisioned node-time integral: every node bills
	// while Active, Draining or Suspended; Parked and Dead nodes are free.
	NodeSeconds float64
	// StaticNodeSeconds is the fixed-fleet baseline, nodes × elapsed.
	StaticNodeSeconds float64
	ScaleOuts         int64
	ScaleIns          int64
	// DrainsForced counts scale-in drains whose grace expired with a batch
	// still in flight (aborted and re-queued).
	DrainsForced int64
	// Migrated counts requests re-queued off drained/suspended/failed nodes;
	// none of them is lost or double-counted.
	Migrated int64
	// Suspends/Crashes count nodes taken out by the failure detector
	// (partition suspensions are transient, crashes terminal).
	Suspends int64
	Crashes  int64
}

// Report is the outcome of one serving experiment.
type Report struct {
	Horizon simnet.Duration
	Elapsed simnet.Time

	Tenants []TenantReport

	Offered      int64
	Admitted     int64
	ShedThrottle int64
	ShedQueue    int64
	Retries      int64
	Completed    int64
	Errors       int64
	SLOOk        int64
	Batches      int64
	BatchedReqs  int64
	MaxDepth     int

	P50, P95, P99, Mean, Max int64 // ns

	// OfferedRPS/ThroughputRPS/GoodputRPS are rates over the arrival
	// horizon in virtual time.
	OfferedRPS    float64
	ThroughputRPS float64
	GoodputRPS    float64
	// ShedFraction is sheds (both causes, net of successful retries)
	// over offered arrivals.
	ShedFraction float64

	// Elastic is the capacity slice (nil for fixed fleets).
	Elastic *ElasticReport
}

// report assembles the Report from the frontend's accounting.
func (f *Frontend) report(cfg Config, end simnet.Time) *Report {
	r := &Report{
		Horizon: cfg.Horizon,
		Elapsed: end,
		P50:     f.Hist.Quantile(0.50),
		P95:     f.Hist.Quantile(0.95),
		P99:     f.Hist.Quantile(0.99),
		Mean:    f.Hist.Mean(),
		Max:     f.Hist.Max(),
	}
	r.Batches = f.Batches
	r.BatchedReqs = f.BatchedReqs
	r.MaxDepth = f.maxDepth
	for i := range f.tenants {
		t := &f.tenants[i]
		tr := TenantReport{
			Name:         t.spec.Name,
			Offered:      t.Offered,
			Admitted:     t.Admitted,
			ShedThrottle: t.ShedThrottle,
			ShedQueue:    t.ShedQueue,
			Retries:      t.Retries,
			Completed:    t.Completed,
			Errors:       t.Errors,
			SLOOk:        t.SLOOk,
			MaxQueue:     t.MaxQueue,
			P50:          t.Hist.Quantile(0.50),
			P95:          t.Hist.Quantile(0.95),
			P99:          t.Hist.Quantile(0.99),
			Mean:         t.Hist.Mean(),
			Max:          t.Hist.Max(),
		}
		r.Tenants = append(r.Tenants, tr)
		r.Offered += tr.Offered
		r.Admitted += tr.Admitted
		r.ShedThrottle += tr.ShedThrottle
		r.ShedQueue += tr.ShedQueue
		r.Retries += tr.Retries
		r.Completed += tr.Completed
		r.Errors += tr.Errors
		r.SLOOk += tr.SLOOk
	}
	secs := simnet.Time(cfg.Horizon).Seconds()
	if secs > 0 {
		r.OfferedRPS = float64(r.Offered) / secs
		r.ThroughputRPS = float64(r.Completed) / secs
		r.GoodputRPS = float64(r.SLOOk) / secs
	}
	if r.Offered > 0 {
		r.ShedFraction = float64(r.ShedThrottle+r.ShedQueue) / float64(r.Offered)
	}
	if el := f.el; el != nil {
		r.Elastic = &ElasticReport{
			NodeSeconds:       el.nodeSeconds(end),
			StaticNodeSeconds: float64(len(el.nodes)) * end.Seconds(),
			ScaleOuts:         el.ScaleOuts,
			ScaleIns:          el.ScaleIns,
			DrainsForced:      el.DrainsForced,
			Migrated:          el.Migrated,
			Suspends:          el.Suspends,
			Crashes:           el.Crashes,
		}
	}
	return r
}

// FillMetrics exports the report into the flat metrics set under the
// "serve." prefix, so the serving layer shows up in the CollectMetrics
// dump next to the simulator, network and device statistics.
func (r *Report) FillMetrics(m *trace.Metrics) {
	m.SetInt("serve.offered", r.Offered)
	m.SetInt("serve.admitted", r.Admitted)
	m.SetInt("serve.shed_throttle", r.ShedThrottle)
	m.SetInt("serve.shed_queue", r.ShedQueue)
	m.SetInt("serve.retries", r.Retries)
	m.SetInt("serve.completed", r.Completed)
	m.SetInt("serve.errors", r.Errors)
	m.SetInt("serve.slo_ok", r.SLOOk)
	m.SetInt("serve.batches", r.Batches)
	m.SetInt("serve.batched_requests", r.BatchedReqs)
	m.SetInt("serve.max_queue_depth", int64(r.MaxDepth))
	m.SetInt("serve.p50_ns", r.P50)
	m.SetInt("serve.p95_ns", r.P95)
	m.SetInt("serve.p99_ns", r.P99)
	m.SetInt("serve.mean_ns", r.Mean)
	m.SetInt("serve.max_ns", r.Max)
	m.SetFloat("serve.offered_rps", r.OfferedRPS, "req/s")
	m.SetFloat("serve.throughput_rps", r.ThroughputRPS, "req/s")
	m.SetFloat("serve.goodput_rps", r.GoodputRPS, "req/s")
	m.SetFloat("serve.shed_fraction", r.ShedFraction, "")
	if e := r.Elastic; e != nil {
		m.SetFloat("serve.node_seconds", e.NodeSeconds, "s")
		m.SetFloat("serve.static_node_seconds", e.StaticNodeSeconds, "s")
		m.SetInt("serve.scale_outs", e.ScaleOuts)
		m.SetInt("serve.scale_ins", e.ScaleIns)
		m.SetInt("serve.drains_forced", e.DrainsForced)
		m.SetInt("serve.migrated", e.Migrated)
		m.SetInt("serve.suspends", e.Suspends)
		m.SetInt("serve.node_crashes", e.Crashes)
	}
	for _, t := range r.Tenants {
		p := "serve.tenant." + t.Name
		m.SetInt(p+".offered", t.Offered)
		m.SetInt(p+".admitted", t.Admitted)
		m.SetInt(p+".shed_throttle", t.ShedThrottle)
		m.SetInt(p+".shed_queue", t.ShedQueue)
		m.SetInt(p+".retries", t.Retries)
		m.SetInt(p+".completed", t.Completed)
		m.SetInt(p+".errors", t.Errors)
		m.SetInt(p+".slo_ok", t.SLOOk)
		m.SetInt(p+".max_queue", int64(t.MaxQueue))
		m.SetInt(p+".p50_ns", t.P50)
		m.SetInt(p+".p95_ns", t.P95)
		m.SetInt(p+".p99_ns", t.P99)
	}
}

// Format renders the report as a fixed-order text table (byte-stable for
// a given trajectory).
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== serve: %v horizon, drained at %v ==\n", simnet.Duration(r.Horizon), r.Elapsed)
	fmt.Fprintf(&b, "offered %d (%.6g req/s)  admitted %d  shed %d+%d (%.4g%%)  retries %d\n",
		r.Offered, r.OfferedRPS, r.Admitted, r.ShedThrottle, r.ShedQueue, 100*r.ShedFraction, r.Retries)
	fmt.Fprintf(&b, "completed %d (%.6g req/s)  goodput %.6g req/s  errors %d  batches %d (coalesced %d)  max depth %d\n",
		r.Completed, r.ThroughputRPS, r.GoodputRPS, r.Errors, r.Batches, r.BatchedReqs, r.MaxDepth)
	fmt.Fprintf(&b, "latency p50 %v  p95 %v  p99 %v  mean %v  max %v\n",
		simnet.Duration(r.P50), simnet.Duration(r.P95), simnet.Duration(r.P99),
		simnet.Duration(r.Mean), simnet.Duration(r.Max))
	if e := r.Elastic; e != nil {
		fmt.Fprintf(&b, "elastic node-seconds %.6g (static %.6g)  scale-out %d  scale-in %d  forced %d  migrated %d  suspends %d  crashes %d\n",
			e.NodeSeconds, e.StaticNodeSeconds, e.ScaleOuts, e.ScaleIns,
			e.DrainsForced, e.Migrated, e.Suspends, e.Crashes)
	}
	fmt.Fprintf(&b, "%-14s %9s %9s %9s %9s %8s %9s %7s %12s %12s %12s\n",
		"tenant", "offered", "admitted", "shed", "complete", "errors", "slo_ok", "maxq", "p50", "p95", "p99")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "%-14s %9d %9d %9d %9d %8d %9d %7d %12v %12v %12v\n",
			t.Name, t.Offered, t.Admitted, t.ShedThrottle+t.ShedQueue, t.Completed,
			t.Errors, t.SLOOk, t.MaxQueue,
			simnet.Duration(t.P50), simnet.Duration(t.P95), simnet.Duration(t.P99))
	}
	return b.String()
}
