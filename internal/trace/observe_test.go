package trace

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderNewAPIIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	r.Add(Span{Kind: KindCPU, End: ms(1), Attrs: []Attr{Int64Attr("k", 1)}})
	r.CounterAdd(0, "c", 0, 1)
	r.GaugeSet(0, "g", 0, 1)
	m := NewMetrics()
	m.MergeCounters(r)
	if r.Len() != 0 || r.Samples() != 0 || len(m.Names()) != 0 {
		t.Fatal("nil recorder recorded something")
	}
	if _, _, ok := r.Window(nil); ok {
		t.Fatal("nil recorder has a window")
	}
	if _, ok := r.FirstOfKind(KindCPU); ok {
		t.Fatal("nil recorder has spans")
	}
}

func TestCounterAccumulatesPerNode(t *testing.T) {
	r := New()
	r.CounterAdd(0, "net.bytes_out", ms(1), 100)
	r.CounterAdd(0, "net.bytes_out", ms(2), 50)
	r.CounterAdd(1, "net.bytes_out", ms(3), 7)
	m := NewMetrics()
	m.MergeCounters(r)
	if got := m.Int("net.bytes_out.node0"); got != 150 {
		t.Fatalf("node 0 total = %d, want 150", got)
	}
	if got := m.Int("net.bytes_out.node1"); got != 7 {
		t.Fatalf("node 1 total = %d, want 7", got)
	}
	if got := m.Int("net.bytes_out"); got != 157 {
		t.Fatalf("total = %d, want 157", got)
	}
	if r.Samples() != 3 {
		t.Fatalf("samples = %d, want 3", r.Samples())
	}
}

func TestGaugeSamples(t *testing.T) {
	r := New()
	r.GaugeSet(0, "satin.queue_depth", ms(1), 3)
	r.GaugeSet(0, "satin.queue_depth", ms(2), 1)
	if r.Samples() != 2 {
		t.Fatalf("samples = %d, want 2", r.Samples())
	}
}

func TestWindowAndFirstOfKind(t *testing.T) {
	r := sample() // spans over [0ms, 50ms]
	from, to, ok := r.Window(nil)
	if !ok || from != ms(0) || to != ms(50) {
		t.Fatalf("window = [%v, %v] ok=%v", from, to, ok)
	}
	from, to, ok = r.Window(func(s Span) bool { return s.Kind == KindKernel })
	if !ok || from != ms(5) || to != ms(50) {
		t.Fatalf("kernel window = [%v, %v] ok=%v", from, to, ok)
	}
	first, ok := r.FirstOfKind(KindKernel)
	if !ok || first.Node != 1 || first.Start != ms(5) {
		t.Fatalf("first kernel = %+v ok=%v", first, ok)
	}
	if _, ok := r.FirstOfKind(KindSteal); ok {
		t.Fatal("found a steal span in sample")
	}
}

// TestRecorderPerSimConcurrency models the parallel experiment harness: many
// concurrent simulations, each confined to its own recorder. Run under -race
// this pins the documented concurrency contract (no sharing across sims, so
// no locks needed).
func TestRecorderPerSimConcurrency(t *testing.T) {
	const sims = 8
	recs := make([]*Recorder, sims)
	var wg sync.WaitGroup
	for i := 0; i < sims; i++ {
		recs[i] = New()
		wg.Add(1)
		go func(r *Recorder) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add(Span{Node: j % 4, Queue: "q0", Kind: KindCPU, Label: "job", Start: ms(j), End: ms(j + 1)})
				r.CounterAdd(j%4, "satin.spawns", ms(j), 1)
				r.GaugeSet(j%4, "satin.queue_depth", ms(j), int64(j%5))
			}
		}(recs[i])
	}
	wg.Wait()
	for i, r := range recs {
		if r.Len() != 1000 || r.Samples() != 2000 {
			t.Fatalf("sim %d: %d spans, %d samples", i, r.Len(), r.Samples())
		}
	}
}

func TestMetricsFormatAndMerge(t *testing.T) {
	r := New()
	r.CounterAdd(0, "satin.steals_ok", ms(1), 2)
	r.CounterAdd(1, "satin.steals_ok", ms(2), 3)
	r.CounterAdd(NodeKernel, "simnet.queue_depth", ms(1), 1)

	m := NewMetrics()
	m.SetInt("satin.steals_ok", 5) // pre-populated; merge must not double it
	m.SetFloat("core.flops", 1.5e9, "flop")
	m.MergeCounters(r)

	if got := m.Int("satin.steals_ok"); got != 5 {
		t.Fatalf("merged sum = %d, want 5", got)
	}
	if got := m.Int("satin.steals_ok.node1"); got != 3 {
		t.Fatalf("node1 = %d, want 3", got)
	}
	if slices.Contains(m.Names(), "simnet.queue_depth.node-1") {
		t.Fatal("kernel pseudo-node leaked a per-node entry")
	}
	out := m.Format()
	if !strings.Contains(out, "== metrics ==") ||
		!strings.Contains(out, "satin.steals_ok") ||
		!strings.Contains(out, "flop") {
		t.Fatalf("format:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")[1:]
	if !sortedStrings(lines) {
		t.Fatalf("metrics lines not sorted:\n%s", out)
	}
}

func sortedStrings(ss []string) bool {
	for i := 1; i < len(ss); i++ {
		if ss[i] < ss[i-1] {
			return false
		}
	}
	return true
}

func TestMetricsMergeNilRecorder(t *testing.T) {
	m := NewMetrics()
	m.MergeCounters(nil)
	if len(m.entries) != 0 {
		t.Fatal("nil merge added entries")
	}
}
