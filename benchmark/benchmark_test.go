package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesCatalogue checks BENCHMARK.json against the metric
// catalogue: the same workloads, the same end-to-end and per-layer metric
// sets with the same units, and valid names.
func TestSpecMatchesCatalogue(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, def := range catalogue {
		if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) {
			t.Errorf("metric %q unit %q: invalid name or unit", def.name, def.unit)
		}
	}
	listed := map[string]bool{}
	for _, group := range []struct {
		entries []struct{ Name, Unit, Better string }
		in      func(metricDef) bool
	}{
		{spec.EndToEnd, func(d metricDef) bool { return d.endToEnd }},
		{spec.PerLayer, func(d metricDef) bool { return d.perLayer }},
	} {
		for _, e := range group.entries {
			def, ok := metricByName[e.Name]
			if !ok || !group.in(def) || def.unit != e.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s) does not match the catalogue", e.Name, e.Unit)
			}
			if def.endToEnd && def.better != e.Better {
				t.Errorf("%s: better = %q, catalogue says %q", e.Name, e.Better, def.better)
			}
			listed[e.Name] = true
		}
	}
	for _, def := range catalogue {
		if (def.endToEnd || def.perLayer) && !listed[def.name] {
			t.Errorf("catalogue metric %s missing from BENCHMARK.json", def.name)
		}
	}
}

// TestQuickWorkloads runs every workload in its quick form, traced, at two
// partitions. The run must pass its checks (its passes compare their
// trajectories at the same seed) and its summary lines must carry every
// BENCHMARK.json metric with its unit. One more pass at one partition must
// follow the identical trajectory.
func TestQuickWorkloads(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 1, quick: true, trace: true, partitions: 2,
				outDir: filepath.Join(dir, "results"), traceDir: filepath.Join(dir, "trace")}
			res, err := measure(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				o.trace = traced
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				var out bytes.Buffer
				if err := report(res, o, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var summary struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]metricValue
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				if !summary.Correct || summary.Failed != 0 || summary.Attempted < 1 {
					t.Fatalf("summary: correct=%v attempted=%d failed=%d; checks %+v",
						summary.Correct, summary.Attempted, summary.Failed, res.Checks)
				}
				if len(summary.Metrics) != len(want) {
					t.Errorf("traced=%v: summary carries %d metrics, want %d", traced, len(summary.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := summary.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			}
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name] == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			o.partitions = 1
			p, err := runPass(w, o, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.digest() != res.Digest {
				t.Errorf("virtual metrics differ between 2 and 1 partitions: %s vs %s", res.Digest, p.digest())
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestVerdict covers the comparison rules on a lower-is-better host metric
// with a 10% bound, and on a virtual metric.
func TestVerdict(t *testing.T) {
	host := metricDef{name: "wall_s", clock: "host", better: "lower", bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{[]float64{1.01, 1.00, 1.00, 0.99, 1.01}, "unchanged"},
		{[]float64{1.30, 1.31, 1.29, 1.30, 1.32}, "worse"},
		{[]float64{0.80, 0.81, 0.79, 0.80, 0.82}, "better"},
		{[]float64{0.5, 1.5, 0.7, 1.3, 1.0}, "unresolved"},
	} {
		if got := verdict(host, base, c.head); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.head, got, c.want)
		}
	}
	virt := metricDef{name: "virtual_s", clock: "virtual", better: "lower", bound: 0.005}
	if got := verdict(virt, []float64{10}, []float64{10}); got != "unchanged" {
		t.Errorf("identical virtual metric: %s", got)
	}
	if got := verdict(virt, []float64{10}, []float64{10.2}); got != "worse" {
		t.Errorf("virtual metric 2%% worse: %s", got)
	}
}

// TestCompareRejectsTrajectoryChange writes two results directories whose
// digests differ at the same seed and expects -compare to fail.
func TestCompareRejectsTrajectoryChange(t *testing.T) {
	write := func(dir, digest string) {
		r := &result{Workload: "dataflow", Host: hostInfo{Seed: 1}, Digest: digest,
			Metrics: map[string]float64{"wall_s": 1, "virtual_s": 2}}
		if _, err := r.write(dir); err != nil {
			t.Fatal(err)
		}
	}
	base, head := t.TempDir(), t.TempDir()
	write(base, "aaaa")
	write(head, "aaaa")
	var out bytes.Buffer
	if ok, err := runCompare(base, head, &out); err != nil || !ok {
		t.Fatalf("identical results rejected: ok=%v err=%v\n%s", ok, err, out.String())
	}
	write(head, "bbbb")
	out.Reset()
	if ok, err := runCompare(base, head, &out); err != nil || ok {
		t.Fatalf("trajectory change accepted: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "trajectory change") {
		t.Errorf("output does not name the trajectory change:\n%s", out.String())
	}
}
