package serve

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"cashmere/internal/simnet"
)

// FormatTrace renders per-tenant traces in the ParseTrace text format,
// tenants in name order (byte-stable for a given input).
func FormatTrace(traces map[string][]TraceEvent) string {
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# tenant offset_ns class\n")
	for _, name := range names {
		for _, ev := range traces[name] {
			fmt.Fprintf(&b, "%s %d %d\n", name, int64(ev.At), ev.Class)
		}
	}
	return b.String()
}

func TestParseFormatTraceRoundtrip(t *testing.T) {
	in := "# tenant offset_ns class\n" +
		"a 1000 0\n" +
		"b 500 1\n" +
		"a 2000 2\n" +
		"\n" +
		"b 1500 0\n"
	traces, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces["a"]) != 2 || len(traces["b"]) != 2 {
		t.Fatalf("parsed %d/%d events", len(traces["a"]), len(traces["b"]))
	}
	if traces["b"][0].At != 500 || traces["b"][1].At != 1500 {
		t.Fatalf("per-tenant events not offset-sorted: %+v", traces["b"])
	}
	out := FormatTrace(traces)
	back, err := ParseTrace(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if FormatTrace(back) != out {
		t.Fatalf("format/parse not a fixpoint:\n%s\nvs\n%s", out, FormatTrace(back))
	}
}

func TestParseTraceRejectsBadLines(t *testing.T) {
	if _, err := ParseTrace(strings.NewReader("a notanumber 0\n")); err == nil {
		t.Fatal("malformed offset accepted")
	}
	if _, err := ParseTrace(strings.NewReader("a -5 0\n")); err == nil {
		t.Fatal("negative offset accepted")
	}
	for _, bad := range []string{"a 5\n", "a 5 0 extra\n", "a 5 -1\n", "a 0x10 0\n", "a 5 1.5\n", "a 99999999999999999999 0\n"} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("bad trace line %q accepted", bad)
		}
	}
}

func TestApplyTraceUnknownTenant(t *testing.T) {
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	err = w.ApplyTrace(map[string][]TraceEvent{"nosuch": {{At: 1}}}, 0)
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown tenant not rejected: %v", err)
	}
}

func TestSynthesizeTraceDeterministic(t *testing.T) {
	w, err := StandardWorkload(200)
	if err != nil {
		t.Fatal(err)
	}
	horizon := simnet.Duration(100 * time.Millisecond)
	a := SynthesizeTrace(w.Tenants, horizon, 42)
	b := SynthesizeTrace(w.Tenants, horizon, 42)
	if FormatTrace(a) != FormatTrace(b) {
		t.Fatal("same seed produced different traces")
	}
	c := SynthesizeTrace(w.Tenants, horizon, 43)
	if FormatTrace(a) == FormatTrace(c) {
		t.Fatal("different seeds produced identical traces")
	}
	total := 0
	for _, evs := range a {
		total += len(evs)
		for _, ev := range evs {
			if ev.At < 0 || ev.At >= horizon {
				t.Fatalf("event at %v outside horizon %v", ev.At, horizon)
			}
		}
	}
	if total == 0 {
		t.Fatal("no events synthesized")
	}
}

// TestReplayOffersExactSchedule runs a replayed workload end to end twice
// and checks that arrivals follow the trace exactly (offered = events +
// client retries) and that the runs are byte-identical.
func TestReplayOffersExactSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	const nodes = 2
	run := func() (*Report, string, int) {
		w, err := StandardWorkload(1)
		if err != nil {
			t.Fatal(err)
		}
		cap, err := w.CapacityRPS("gtx480", nodes)
		if err != nil {
			t.Fatal(err)
		}
		w.ScaleRates(0.5 * cap)
		traces := SynthesizeTrace(w.Tenants, simnet.Duration(200*time.Millisecond), 17)
		if err := w.ApplyTrace(traces, 0); err != nil {
			t.Fatal(err)
		}
		events := 0
		for _, evs := range traces {
			events += len(evs)
		}
		rep, dump := runElastic(t, w, nodes, 1, 23, func(c *Config) {
			c.Horizon = 200 * time.Millisecond
		})
		return rep, dump, events
	}
	rep, dump1, events := run()
	if rep.Offered != int64(events)+rep.Retries {
		t.Fatalf("offered %d != %d trace events + %d retries", rep.Offered, events, rep.Retries)
	}
	if rep.Admitted != rep.Completed+rep.Errors {
		t.Fatalf("lost requests: admitted %d != completed %d + errors %d",
			rep.Admitted, rep.Completed, rep.Errors)
	}
	_, dump2, _ := run()
	if dump1 != dump2 {
		t.Fatalf("identical replay runs diverged:\n-- 1 --\n%s\n-- 2 --\n%s", dump1, dump2)
	}
}

// TestReplayTraceFileFitsStandardWorkload: the committed trace that
// `make reach` replays through cashmere-serve parses, names only the
// standard workload's tenants, and asks only for classes in their mixes.
func TestReplayTraceFileFitsStandardWorkload(t *testing.T) {
	f, err := os.Open("testdata/replay.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := ParseTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	w, err := StandardWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyTrace(traces, 0); err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(w.Tenants) {
		t.Fatalf("trace names %d tenants, the workload has %d", len(traces), len(w.Tenants))
	}
	for _, tn := range w.Tenants {
		if len(tn.Arrival.Trace) == 0 {
			t.Fatalf("tenant %s has no arrivals", tn.Name)
		}
		for _, ev := range tn.Arrival.Trace {
			if ev.Class >= len(tn.Mix) {
				t.Fatalf("tenant %s: class %d outside its %d-class mix", tn.Name, ev.Class, len(tn.Mix))
			}
		}
	}
}
