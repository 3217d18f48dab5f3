package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// runCompare compares the untraced results files of two directories (the
// parent commit's and the change's), per workload and metric. It reports
// false when any metric got worse by more than its bound or the virtual
// trajectory changed.
func runCompare(baseDir, headDir string, out io.Writer) (bool, error) {
	base, err := loadResults(baseDir)
	if err != nil {
		return false, err
	}
	head, err := loadResults(headDir)
	if err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tbound\tverdict")
	for _, name := range workloadNames() {
		b, h := base[name], head[name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		if changed := trajectoryChanges(b, h); len(changed) > 0 {
			ok = false
			fmt.Fprintf(tw, "%s\ttrajectory_digest\t\t\t\ttrajectory change at seed %v\n", name, changed)
		}
		for _, def := range catalogue {
			bv, hv := values(b, def.name), values(h, def.name)
			if def.better == "" || len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := verdict(def, bv, hv)
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", name, def.name, spread(bv), spread(hv), boundText(def), v)
		}
	}
	return ok, tw.Flush()
}

// stat is one metric's distribution over a set of runs.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summary is the recorded baseline: for each directory of results (one set
// of runs, named by the directory), each workload's end-to-end metrics, and
// for each host metric the spread the sets showed.
type summary struct {
	Host   hostInfo                               `json:"host"`
	Sets   map[string]map[string]map[string]stat  `json:"sets"`
	Digest map[string]map[string]map[int64]string `json:"trajectory_digest"` // set -> workload -> seed -> digest
	Spread map[string]map[string]float64          `json:"host_spread"`       // workload -> metric -> largest (q3-q1)/median over the sets
	Bounds map[string]float64                     `json:"bounds"`
}

// runSummary writes the summary of the untraced results in dirs as JSON.
func runSummary(dirs []string, out io.Writer) error {
	s := summary{
		Sets: map[string]map[string]map[string]stat{}, Digest: map[string]map[string]map[int64]string{},
		Spread: map[string]map[string]float64{}, Bounds: map[string]float64{},
	}
	for _, dir := range dirs {
		results, err := loadResults(dir)
		if err != nil {
			return err
		}
		set := map[string]map[string]stat{}
		digests := map[string]map[int64]string{}
		for _, name := range workloadNames() {
			rs := results[name]
			if len(rs) == 0 {
				continue
			}
			s.Host = rs[0].Host
			stats := map[string]stat{}
			for _, def := range catalogue {
				vs := values(rs, def.name)
				if def.better == "" || len(vs) == 0 {
					continue
				}
				q1, q3 := quartiles(vs)
				m := median(vs)
				stats[def.name] = stat{Median: m, Q1: q1, Q3: q3, N: len(vs)}
				if def.clock == "host" {
					if s.Spread[name] == nil {
						s.Spread[name] = map[string]float64{}
					}
					s.Spread[name][def.name] = max(s.Spread[name][def.name], ratio(q3-q1, m))
				}
			}
			set[name] = stats
			digests[name] = map[int64]string{}
			for _, r := range rs {
				digests[name][r.Host.Seed] = r.Digest
			}
		}
		s.Sets[filepath.Base(dir)] = set
		s.Digest[filepath.Base(dir)] = digests
	}
	for _, def := range catalogue {
		if def.endToEnd {
			s.Bounds[def.name] = def.bound
		}
	}
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(buf))
	return err
}

// loadResults reads every untraced results file of dir, by workload, in
// file-name (that is, time) order.
func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]*result{}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no results files in %s", dir)
	}
	return out, nil
}

// trajectoryChanges lists the seeds at which the two sides' digests of the
// virtual metrics differ.
func trajectoryChanges(base, head []*result) []int64 {
	digests := map[int64]string{}
	for _, r := range base {
		digests[r.Host.Seed] = r.Digest
	}
	seen := map[int64]bool{}
	var changed []int64
	for _, r := range head {
		if d, ok := digests[r.Host.Seed]; ok && d != r.Digest && !seen[r.Host.Seed] {
			seen[r.Host.Seed] = true
			changed = append(changed, r.Host.Seed)
		}
	}
	return changed
}

func values(rs []*result, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func spread(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%s [%s, %s] n=%d", formatValue(median(vs)), formatValue(q1), formatValue(q3), len(vs))
}

func boundText(def metricDef) string {
	if def.abs > 0 {
		return fmt.Sprintf("+%g abs", def.abs)
	}
	return fmt.Sprintf("%g%%", 100*def.bound)
}

// verdict judges head against base: a metric is worse when its median worsened by more
// than the bound; better when the change wins at least nine tenths of the
// paired runs and the medians differ by more than the base's quartile
// spread; unresolved when either side's spread exceeds the bound, unless
// every head run beats every base run; unchanged otherwise.
func verdict(def metricDef, base, head []float64) string {
	bm, hm := median(base), median(head)
	// gain is how much better head is than base, in the metric's units;
	// negative when worse.
	gain := func(b, h float64) float64 {
		if def.better == "higher" {
			return h - b
		}
		return b - h
	}
	allowed := def.abs
	if allowed == 0 {
		allowed = def.bound * math.Abs(bm)
	}
	if def.clock == "virtual" {
		switch g := gain(bm, hm); {
		case g == 0:
			return "unchanged"
		case g > 0:
			return "better"
		case -g > allowed:
			return "worse"
		}
		return "changed within bound"
	}
	bq1, bq3 := quartiles(base)
	hq1, hq3 := quartiles(head)
	wide := bq3-bq1 > allowed || hq3-hq1 > allowed
	everyRunBetter := true
	for _, b := range base {
		for _, h := range head {
			everyRunBetter = everyRunBetter && gain(b, h) > 0
		}
	}
	if wide {
		if everyRunBetter {
			return "better"
		}
		return "unresolved"
	}
	if -gain(bm, hm) > allowed {
		return "worse"
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if gain(base[i], head[i]) > 0 {
			wins++
		}
	}
	if float64(wins) >= 0.9*float64(pairs) && gain(bm, hm) > bq3-bq1 {
		return "better"
	}
	return "unchanged"
}
