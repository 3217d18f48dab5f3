package satin

import (
	"strings"
	"testing"
	"time"

	"cashmere/internal/network"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

func TestRuntimeRecordsObservability(t *testing.T) {
	k := simnet.NewKernel(7)
	rec := trace.New()
	rt := New(k, 4, network.QDRInfiniBand(), DefaultConfig(), rec)
	v, _ := rt.Run(func(ctx *Context) any { return fib(ctx, 12, 20*time.Microsecond) })
	if v.(int) != 144 {
		t.Fatalf("fib(12) = %v, want 144", v)
	}

	m := trace.NewMetrics()
	m.MergeCounters(rec) // each counter summed over the nodes
	spawns, executed, stealsOK := m.Int("satin.spawns"), m.Int("satin.jobs_executed"), m.Int("satin.steals_ok")
	if spawns != rt.JobsSpawned() {
		t.Fatalf("satin.spawns = %d, runtime says %d", spawns, rt.JobsSpawned())
	}
	if executed != rt.JobsExecuted() {
		t.Fatalf("satin.jobs_executed = %d, runtime says %d", executed, rt.JobsExecuted())
	}
	if stealsOK != rt.StealsOK() {
		t.Fatalf("satin.steals_ok = %d, runtime says %d", stealsOK, rt.StealsOK())
	}
	if rt.StealsOK() == 0 {
		t.Fatal("run produced no steals; test proves nothing")
	}

	// Thief-side steal spans carry the victim as an attribute.
	steal, ok := rec.FirstOfKind(trace.KindSteal)
	if !ok {
		t.Fatal("no steal span recorded")
	}
	if !strings.HasPrefix(steal.Label, "steal:") && !strings.HasPrefix(steal.Label, "stolen:") {
		t.Fatalf("steal span label = %q", steal.Label)
	}
	thief := rec.Filter(func(s trace.Span) bool {
		return s.Kind == trace.KindSteal && strings.HasPrefix(s.Label, "steal:")
	})
	if len(thief) == 0 {
		t.Fatal("no thief-side steal span")
	}
	var hasVictim bool
	for _, a := range thief[0].Attrs {
		hasVictim = hasVictim || a.Key == "victim"
	}
	if !hasVictim {
		t.Fatalf("thief steal span missing victim attr: %+v", thief[0].Attrs)
	}

	// The fabric shares the runtime's recorder, so network counters land in
	// the same trace.
	if m.Int("net.bytes_out") == 0 {
		t.Fatal("no network bytes recorded; fabric recorder not wired")
	}

	// Queue-depth gauges sampled on deque mutations.
	if rec.Samples() == 0 {
		t.Fatal("no samples recorded")
	}
}

// TestCrashRecordsCounters crashes a node while the computation runs (it
// ends near 2.8 ms) and checks that the crash and the re-executions it
// caused are recorded as trace counters.
func TestCrashRecordsCounters(t *testing.T) {
	k := simnet.NewKernel(11)
	rec := trace.New()
	rt := New(k, 4, network.QDRInfiniBand(), DefaultConfig(), rec)
	k.SpawnAt(simnet.Time(1*time.Millisecond), "crasher", func(p *simnet.Proc) {
		rt.CrashAsync(p, 3)
	})
	v, _ := rt.Run(func(ctx *Context) any {
		return divideAndCompute(ctx, 128, 500*time.Microsecond)
	})
	if v.(int) != 128 {
		t.Fatalf("result after crash = %v, want 128", v)
	}
	m := trace.NewMetrics()
	m.MergeCounters(rec)
	crashes, reexec := m.Int("satin.crashes"), m.Int("satin.reexecutions")
	if crashes != 1 {
		t.Fatalf("satin.crashes = %d, want 1", crashes)
	}
	if rt.JobsReExecuted() == 0 {
		t.Fatal("the crash re-executed no jobs")
	}
	if reexec != rt.JobsReExecuted() {
		t.Fatalf("satin.reexecutions = %d, runtime says %d", reexec, rt.JobsReExecuted())
	}
}
