package serve

import (
	"testing"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/simnet"
)

// diurnalWorkload returns the standard workload with every tenant switched
// to in-phase diurnal arrivals — swing s gives a peak:trough ratio of
// (1+s)/(1-s) — at a mean of load × the full fleet's capacity.
func diurnalWorkload(t testing.TB, nodes int, load, swing float64, period time.Duration) *Workload {
	t.Helper()
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := w.CapacityRPS("gtx480", nodes)
	if err != nil {
		t.Fatal(err)
	}
	w.ScaleRates(load * cap)
	for i := range w.Tenants {
		a := &w.Tenants[i].Arrival
		a.Kind = Diurnal
		a.Period = period
		a.Swing = swing
	}
	return w
}

// runElastic runs one serving experiment with the given config mutation and
// returns the report plus the byte-comparable report+metrics dump.
func runElastic(t testing.TB, w *Workload, nodes, partitions int, seed int64, mut func(*Config)) (*Report, string) {
	t.Helper()
	ccfg := core.DefaultConfig(nodes, "gtx480")
	ccfg.Seed = seed
	ccfg.Partitions = partitions
	cl, err := core.NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range w.KernelSets {
		if err := cl.Register(ks); err != nil {
			t.Fatal(err)
		}
	}
	scfg := DefaultConfig(w)
	mut(&scfg)
	rep, err := Run(cl, scfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cl.CollectMetrics()
	rep.FillMetrics(m)
	return rep, rep.Format() + m.Format()
}

// checkConservation asserts the accounting identities that make "no request
// is ever lost" checkable: every offered request is admitted or shed, and
// every admitted request completes (or errors) by drain time.
func checkConservation(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Offered != rep.Admitted+rep.ShedThrottle+rep.ShedQueue {
		t.Fatalf("offered %d != admitted %d + sheds %d+%d",
			rep.Offered, rep.Admitted, rep.ShedThrottle, rep.ShedQueue)
	}
	if rep.Admitted != rep.Completed+rep.Errors {
		t.Fatalf("lost requests: admitted %d != completed %d + errors %d",
			rep.Admitted, rep.Completed, rep.Errors)
	}
}

// TestAutoscaleSavesNodeSecondsUnderDiurnalSwing drives a 5x diurnal swing
// (swing 2/3) through a 4-node fleet with the autoscaler holding a 2-node
// floor, and checks the two sides of the elasticity claim: node-seconds
// come in well under the static fleet, and goodput does not collapse.
func TestAutoscaleSavesNodeSecondsUnderDiurnalSwing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	const nodes = 4
	w := diurnalWorkload(t, nodes, 0.7, 2.0/3, 300*time.Millisecond)
	rep, _ := runElastic(t, w, nodes, 1, 11, func(c *Config) {
		c.Horizon = 900 * time.Millisecond
		c.Autoscale = &AutoscaleConfig{Min: 2, Initial: 2, DownTicks: 3, Cooldown: 20 * time.Millisecond}
	})
	checkConservation(t, rep)
	e := rep.Elastic
	if e == nil {
		t.Fatal("autoscaled run produced no elastic report")
	}
	t.Logf("node-seconds %.4g / static %.4g (%.0f%%)  scale-out %d  scale-in %d  forced %d  migrated %d",
		e.NodeSeconds, e.StaticNodeSeconds, 100*e.NodeSeconds/e.StaticNodeSeconds,
		e.ScaleOuts, e.ScaleIns, e.DrainsForced, e.Migrated)
	t.Logf("completed %d  slo_ok %d (%.1f%%)  p99 %v",
		rep.Completed, rep.SLOOk, 100*float64(rep.SLOOk)/float64(rep.Completed),
		simnet.Duration(rep.P99))
	if e.NodeSeconds >= 0.85*e.StaticNodeSeconds {
		t.Fatalf("autoscaler saved too little: %.4g of %.4g static node-seconds",
			e.NodeSeconds, e.StaticNodeSeconds)
	}
	if e.ScaleOuts == 0 {
		t.Fatal("no scale-outs through a 5x swing from a 2-node floor")
	}
	if e.ScaleIns == 0 {
		t.Fatal("no scale-ins through a 5x swing")
	}
	if rep.Completed == 0 {
		t.Fatal("no completions")
	}
	if frac := float64(rep.SLOOk) / float64(rep.Completed); frac < 0.85 {
		t.Fatalf("SLO attainment collapsed to %.1f%% under autoscaling", 100*frac)
	}
}

// TestAutoscalePartitionLayoutIdentity asserts the determinism contract for
// autoscaled runs: report + metrics dumps are byte-identical at any
// -partitions count.
func TestAutoscalePartitionLayoutIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	const nodes = 4
	run := func(partitions int) string {
		w := diurnalWorkload(t, nodes, 0.45, 2.0/3, 200*time.Millisecond)
		_, dump := runElastic(t, w, nodes, partitions, 7, func(c *Config) {
			c.Horizon = 400 * time.Millisecond
			as := DefaultAutoscale()
			as.Min = 2
			as.Initial = 2
			c.Autoscale = as
		})
		return dump
	}
	seq := run(1)
	for _, parts := range []int{2, 4} {
		if got := run(parts); got != seq {
			t.Errorf("autoscaled run diverged at %d partitions:\n-- 1 --\n%s\n-- %d --\n%s",
				parts, seq, parts, got)
		}
	}
}

// TestChaosScriptedFaultsLoseNothing injects one of each fault kind on a
// fixed schedule — a straggler, a network partition, a crash — and checks
// that the frontend reroutes around all of them without losing a request.
func TestChaosScriptedFaultsLoseNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	const nodes = 4
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := w.CapacityRPS("gtx480", nodes)
	if err != nil {
		t.Fatal(err)
	}
	w.ScaleRates(0.4 * cap)
	script := []ChaosEvent{
		{At: simnet.Duration(40 * time.Millisecond), Kind: ChaosStraggler, Nodes: []int{1}, Dur: simnet.Duration(60 * time.Millisecond), Factor: 8},
		{At: simnet.Duration(60 * time.Millisecond), Kind: ChaosPartition, Nodes: []int{2}, Dur: simnet.Duration(40 * time.Millisecond)},
		{At: simnet.Duration(120 * time.Millisecond), Kind: ChaosCrash, Nodes: []int{3}},
	}
	rep, _ := runElastic(t, w, nodes, 1, 5, func(c *Config) {
		c.Horizon = 300 * time.Millisecond
		c.Chaos = &ChaosConfig{Seed: 1, Script: script}
	})
	checkConservation(t, rep)
	e := rep.Elastic
	if e == nil {
		t.Fatal("chaos run produced no elastic report")
	}
	t.Logf("suspends %d  crashes %d  migrated %d  completed %d  errors %d",
		e.Suspends, e.Crashes, e.Migrated, rep.Completed, rep.Errors)
	if e.Suspends != 1 {
		t.Fatalf("suspends = %d, want 1 (the scripted partition)", e.Suspends)
	}
	if e.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1 (the scripted crash)", e.Crashes)
	}
	if rep.Completed == 0 {
		t.Fatal("no completions under chaos")
	}
	// The dead node stays billed-dead and the fleet keeps serving: goodput
	// must not collapse (most completions still within SLO at 0.4 load).
	if frac := float64(rep.SLOOk) / float64(rep.Completed); frac < 0.7 {
		t.Fatalf("SLO attainment %.1f%% under scripted chaos at 0.4 load", 100*frac)
	}
}

// TestChaosScriptRejectsInvalidEvents checks that Run refuses a scripted
// fault schedule the harness cannot apply, before the simulation starts:
// victims outside the remote nodes, wrong victim counts, unsorted or
// negative times, unknown kinds and non-positive fault durations.
func TestChaosScriptRejectsInvalidEvents(t *testing.T) {
	const nodes = 4
	ms := func(n int) simnet.Duration { return simnet.Duration(time.Duration(n) * time.Millisecond) }
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		script []ChaosEvent
	}{
		{"crash node 0", []ChaosEvent{{At: ms(10), Kind: ChaosCrash, Nodes: []int{0}}}},
		{"partition node 0", []ChaosEvent{{At: ms(10), Kind: ChaosPartition, Nodes: []int{0}, Dur: ms(20)}}},
		{"straggler beyond cluster", []ChaosEvent{{At: ms(10), Kind: ChaosStraggler, Nodes: []int{9}, Dur: ms(20), Factor: 4}}},
		{"crash negative node", []ChaosEvent{{At: ms(10), Kind: ChaosCrash, Nodes: []int{1, -1}}}},
		{"partition no nodes", []ChaosEvent{{At: ms(10), Kind: ChaosPartition, Dur: ms(20)}}},
		{"straggler no nodes", []ChaosEvent{{At: ms(10), Kind: ChaosStraggler, Dur: ms(20), Factor: 4}}},
		{"partition two nodes", []ChaosEvent{{At: ms(10), Kind: ChaosPartition, Nodes: []int{1, 2}, Dur: ms(20)}}},
		{"crash no nodes", []ChaosEvent{{At: ms(10), Kind: ChaosCrash}}},
		{"negative time", []ChaosEvent{{At: -ms(1), Kind: ChaosCrash, Nodes: []int{1}}}},
		{"unsorted", []ChaosEvent{
			{At: ms(20), Kind: ChaosCrash, Nodes: []int{1}},
			{At: ms(10), Kind: ChaosCrash, Nodes: []int{2}},
		}},
		{"unknown kind", []ChaosEvent{{At: ms(10), Kind: ChaosKind(7), Nodes: []int{1}}}},
		{"partition zero duration", []ChaosEvent{{At: ms(10), Kind: ChaosPartition, Nodes: []int{1}}}},
		{"straggler negative duration", []ChaosEvent{{At: ms(10), Kind: ChaosStraggler, Nodes: []int{1}, Dur: -ms(5), Factor: 4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := testCluster(t, nodes, 1, w)
			cfg := DefaultConfig(w)
			cfg.Horizon = 200 * time.Millisecond
			cfg.Chaos = &ChaosConfig{Seed: 1, Script: tc.script}
			if _, err := Run(cl, cfg); err == nil {
				t.Fatal("Run accepted an invalid chaos script")
			} else {
				t.Log(err)
			}
		})
	}
}

// TestAutoscaleConfigRejected checks that Run refuses an autoscaler tuning
// the controller cannot run, before the simulation starts, instead of
// replacing it with a default.
func TestAutoscaleConfigRejected(t *testing.T) {
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		as   AutoscaleConfig
	}{
		{"zero DownTicks", AutoscaleConfig{Min: 1, DownTicks: 0, Cooldown: simnet.Duration(time.Millisecond)}},
		{"negative DownTicks", AutoscaleConfig{Min: 1, DownTicks: -2}},
		{"negative Cooldown", AutoscaleConfig{Min: 1, DownTicks: 6, Cooldown: -simnet.Duration(time.Millisecond)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := testCluster(t, 4, 1, w)
			cfg := DefaultConfig(w)
			cfg.Horizon = 200 * time.Millisecond
			cfg.Autoscale = &tc.as
			if _, err := Run(cl, cfg); err == nil {
				t.Fatal("Run accepted an invalid autoscaler tuning")
			} else {
				t.Log(err)
			}
		})
	}
}

// TestChaosPartitionLayoutIdentity asserts byte-identical trajectories for a
// generated chaos schedule across partition layouts — the property the CI
// chaos job enforces end to end.
func TestChaosPartitionLayoutIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	const nodes = 4
	run := func(partitions int) string {
		w, err := StandardWorkload(1)
		if err != nil {
			t.Fatal(err)
		}
		cap, err := w.CapacityRPS("gtx480", nodes)
		if err != nil {
			t.Fatal(err)
		}
		w.ScaleRates(0.4 * cap)
		_, dump := runElastic(t, w, nodes, partitions, 3, func(c *Config) {
			c.Horizon = 300 * time.Millisecond
			c.Chaos = &ChaosConfig{Seed: 3}
		})
		return dump
	}
	seq := run(1)
	for _, parts := range []int{2, 4} {
		if got := run(parts); got != seq {
			t.Errorf("chaos run diverged at %d partitions:\n-- 1 --\n%s\n-- %d --\n%s",
				parts, seq, parts, got)
		}
	}
}

// TestChaosWithAutoscaleConserves runs both controllers together — the
// autoscaler reshaping the fleet while partitions, stragglers and crashes
// land on it — and checks conservation plus determinism across repeats.
func TestChaosWithAutoscaleConserves(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	const nodes = 4
	run := func() (*Report, string) {
		w := diurnalWorkload(t, nodes, 0.45, 2.0/3, 200*time.Millisecond)
		return runElastic(t, w, nodes, 1, 9, func(c *Config) {
			c.Horizon = 400 * time.Millisecond
			as := DefaultAutoscale()
			as.Min = 2
			as.Initial = 2
			c.Autoscale = as
			c.Chaos = &ChaosConfig{Seed: 9}
		})
	}
	rep, dump1 := run()
	checkConservation(t, rep)
	e := rep.Elastic
	if e == nil {
		t.Fatal("no elastic report")
	}
	t.Logf("scale-out %d  scale-in %d  suspends %d  crashes %d  migrated %d",
		e.ScaleOuts, e.ScaleIns, e.Suspends, e.Crashes, e.Migrated)
	if e.Crashes == 0 {
		t.Fatal("the generated schedule crashed no node")
	}
	_, dump2 := run()
	if dump1 != dump2 {
		t.Fatalf("identical chaos+autoscale runs diverged:\n-- 1 --\n%s\n-- 2 --\n%s", dump1, dump2)
	}
}

// TestRequeueRestoresQueueAccounting drives the abort path on the pure
// frontend: a dispatched batch pushed back via requeue must come back at
// the front of its tenant queue in the original order, with queue-depth and
// in-flight counters restored and nothing double-counted as admitted.
func TestRequeueRestoresQueueAccounting(t *testing.T) {
	f := NewFrontend(nil, feConfig(TenantSpec{
		Name: "a", Weight: 1, QueueLimit: 8,
		Mix: []JobClass{classFixed("c", time.Millisecond, "n")},
	}), nil)
	var reqs []*Request
	for i := 0; i < 5; i++ {
		r, v, _ := f.Admit(simnet.Time(i), 0, 0)
		if v != Admitted {
			t.Fatalf("arrival %d not admitted", i)
		}
		reqs = append(reqs, r)
	}
	admitted := f.tenants[0].Admitted

	batch := f.NextBatch(10, nil)
	if len(batch) != 4 {
		t.Fatalf("batch size %d, want MaxBatch 4", len(batch))
	}
	if f.queued != 1 || f.inflight != 4 {
		t.Fatalf("queued/inflight = %d/%d after dispatch", f.queued, f.inflight)
	}

	f.requeue(20, batch)
	if f.queued != 5 || f.inflight != 0 {
		t.Fatalf("queued/inflight = %d/%d after requeue, want 5/0", f.queued, f.inflight)
	}
	if got := f.tenants[0].Admitted; got != admitted {
		t.Fatalf("admitted moved %d -> %d on requeue (double count)", admitted, got)
	}

	// Re-dispatch: the re-queued requests come back first, in arrival order.
	again := f.NextBatch(30, nil)
	if len(again) != 4 {
		t.Fatalf("re-dispatch batch size %d", len(again))
	}
	for i, r := range again {
		if r != reqs[i] {
			t.Fatalf("re-dispatch order broken at %d", i)
		}
	}
	for _, r := range again {
		f.Complete(40, r, true)
	}
	rest := f.NextBatch(50, nil)
	if len(rest) != 1 || rest[0] != reqs[4] {
		t.Fatal("tail request lost or reordered after requeue cycle")
	}
	f.Complete(60, rest[0], true)
	st := &f.tenants[0]
	if st.Admitted != st.Completed {
		t.Fatalf("admitted %d != completed %d after requeue cycle", st.Admitted, st.Completed)
	}
}

// TestScaleHintStretchesWithInactiveSlots checks the retry-after fix: queue
// sheds tell clients to back off in proportion to the capacity actually in
// rotation.
func TestScaleHintStretchesWithInactiveSlots(t *testing.T) {
	el := &elastic{totalSlots: 4, activeSlots: 4}
	h := simnet.Duration(time.Millisecond)
	if got := el.scaleHint(h); got != h {
		t.Fatalf("full fleet hint %v, want %v", got, h)
	}
	el.activeSlots = 2
	if got := el.scaleHint(h); got != 2*h {
		t.Fatalf("half fleet hint %v, want %v", got, 2*h)
	}
	el.activeSlots = 0
	if got := el.scaleHint(h); got != maxRetryAfter {
		t.Fatalf("no-capacity hint %v, want cap %v", got, maxRetryAfter)
	}
	el.activeSlots = 1
	if got := el.scaleHint(simnet.Duration(40 * time.Millisecond)); got != maxRetryAfter {
		t.Fatalf("stretched hint %v exceeds cap %v", got, maxRetryAfter)
	}
}
