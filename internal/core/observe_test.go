package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"cashmere/internal/satin"
	"cashmere/internal/trace"
)

func runScaleCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register(mustKS(t, "scale", scaleKernel))
	if _, _, err := cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		return k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": 1 << 20},
			InBytes: 4 << 20, OutBytes: 4 << 20,
		}).Run(ctx)
	}); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestTraceSchedRecordsKernelLanes(t *testing.T) {
	cfg := DefaultConfig(2, "k20")
	cfg.Record = true
	cfg.TraceSched = true
	cl := runScaleCluster(t, cfg)
	rec := cl.Recorder()
	sched := rec.Filter(func(s trace.Span) bool { return s.Kind == trace.KindSched })
	if len(sched) == 0 {
		t.Fatal("TraceSched on but no scheduler slices recorded")
	}
	for _, s := range sched {
		if s.Node != trace.NodeKernel {
			t.Fatalf("sched span on node %d, want NodeKernel: %+v", s.Node, s)
		}
	}
	// Without TraceSched no scheduler lanes appear (they would pollute the
	// ASCII Gantt charts).
	cfg2 := DefaultConfig(2, "k20")
	cfg2.Record = true
	cl2 := runScaleCluster(t, cfg2)
	if _, ok := cl2.Recorder().FirstOfKind(trace.KindSched); ok {
		t.Fatal("sched spans recorded without TraceSched")
	}
}

func TestCollectMetrics(t *testing.T) {
	cfg := DefaultConfig(2, "k20")
	cfg.Record = true
	cl := runScaleCluster(t, cfg)
	m := cl.CollectMetrics()
	for _, name := range []string{
		"simnet.events", "simnet.callbacks", "sim.virtual_time_ns",
		"satin.jobs_spawned", "satin.jobs_executed",
		"net.bytes_sent", "net.messages_sent",
		"mcl.launches", "mcl.bytes_moved", "mcl.kernel_busy_ns",
	} {
		if !slices.Contains(m.Names(), name) {
			t.Fatalf("metrics missing %q:\n%s", name, m.Format())
		}
	}
	// Layout-dependent scheduler internals live in HostMetrics, never in the
	// byte-compared dump.
	if slices.Contains(m.Names(), "simnet.switches") || slices.Contains(m.Names(), "simnet.max_queue") {
		t.Fatalf("layout-dependent metric leaked into CollectMetrics:\n%s", m.Format())
	}
	hm := cl.HostMetrics()
	for _, name := range []string{"simnet.switches", "simnet.self_wakes", "simnet.steps", "pdes.partitions"} {
		if !slices.Contains(hm.Names(), name) {
			t.Fatalf("host metrics missing %q:\n%s", name, hm.Format())
		}
	}
	if m.Int("mcl.launches") != 1 {
		t.Fatalf("mcl.launches = %d, want 1", m.Int("mcl.launches"))
	}
	// The explicit runtime stat and the trace counter sum must agree, not
	// double-count.
	if m.Int("satin.jobs_executed") != cl.Runtime().JobsExecuted() {
		t.Fatalf("satin.jobs_executed = %d, runtime says %d",
			m.Int("satin.jobs_executed"), cl.Runtime().JobsExecuted())
	}
	if m.Int("mcl.bytes_moved") == 0 || m.Int("net.bytes_sent") == 0 {
		t.Fatalf("zero traffic metrics:\n%s", m.Format())
	}
}

func TestCollectMetricsWithoutTracing(t *testing.T) {
	cfg := DefaultConfig(2, "k20")
	cl := runScaleCluster(t, cfg)
	m := cl.CollectMetrics()
	if m.Int("satin.jobs_executed") != cl.Runtime().JobsExecuted() {
		t.Fatal("runtime stats must survive with tracing off")
	}
	if m.Int("mcl.launches") != 1 {
		t.Fatalf("mcl.launches = %d, want 1", m.Int("mcl.launches"))
	}
}

// TestClusterChromeTraceHasAllLayers pins the acceptance criterion: a traced
// run exports Chrome JSON containing spans from the simnet, network, satin
// and mcl layers.
func TestClusterChromeTraceHasAllLayers(t *testing.T) {
	cfg := DefaultConfig(4, "k20")
	cfg.Record = true
	cfg.TraceSched = true
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register(mustKS(t, "scale", scaleKernel))
	if _, _, err := cl.Run(func(ctx *satin.Context) any {
		var run func(ctx *satin.Context, leaves int) any
		run = func(ctx *satin.Context, leaves int) any {
			if leaves == 1 {
				k, _ := GetKernel(ctx, "scale")
				return k.NewLaunch(LaunchSpec{
					Params:  map[string]int64{"n": 1 << 20},
					InBytes: 4 << 20, OutBytes: 4 << 20,
				}).Run(ctx)
			}
			desc := satin.JobDesc{Name: "part", InputBytes: 4 << 20, ResultBytes: 64}
			a := ctx.Spawn(desc, func(c *satin.Context) any { return run(c, leaves/2) })
			b := ctx.Spawn(desc, func(c *satin.Context) any { return run(c, leaves-leaves/2) })
			ctx.Sync()
			_, _ = a.Value(), b.Value()
			return nil
		}
		return run(ctx, 16)
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cl.Recorder().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			cats[e.Cat]++
		}
	}
	for cat, layer := range map[string]string{
		"sched":  "simnet",
		"recv":   "network",
		"kernel": "mcl",
	} {
		if cats[cat] == 0 {
			t.Fatalf("no %q spans (%s layer) in trace: %v", cat, layer, cats)
		}
	}
	// Satin contributes CPU/steal spans; either proves the layer is wired.
	if cats["cpu"]+cats["steal"] == 0 {
		t.Fatalf("no satin spans in trace: %v", cats)
	}
}
