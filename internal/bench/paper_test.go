package bench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenAll is the committed output of `cashmere-bench -experiment all`;
// `make reach` fails when the command's output differs from it.
const goldenAll = "../../testdata/golden/bench-all.txt"

// goldenTables is bench-all.txt split at its "== id: title ==" headers:
// each section's lines after the header, note and legend lines dropped, as
// whitespace-separated fields.
type goldenTables map[string][][]string

func readGoldenTables(t *testing.T) goldenTables {
	t.Helper()
	data, err := os.ReadFile(goldenAll)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenTables{}
	var id string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "== ") {
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "== "), ":")
			g[id] = nil
			continue
		}
		if id == "" || line == "" || strings.HasPrefix(line, "note:") || strings.HasPrefix(line, "legend:") {
			continue
		}
		g[id] = append(g[id], strings.Fields(line))
	}
	return g
}

// series returns the column named label of figure id, keyed by the row's
// x value (its first field).
func (g goldenTables) series(t *testing.T, id, label string) map[string]float64 {
	t.Helper()
	rows := g[id]
	if len(rows) < 2 {
		t.Fatalf("%s: no rows in %s", id, goldenAll)
	}
	col := -1
	for i, h := range rows[0] {
		if h == label {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("%s: no column %q in %v", id, label, rows[0])
	}
	out := map[string]float64{}
	for _, r := range rows[1:] {
		out[r[0]] = parseGolden(t, id, r[col])
	}
	return out
}

// tab3 returns Table III's measured GFLOPS of app.
func (g goldenTables) tab3(t *testing.T, app string) float64 {
	t.Helper()
	for _, r := range g["tab3"] {
		if r[0] == app {
			return parseGolden(t, "tab3", r[1])
		}
	}
	t.Fatalf("tab3: no row %q", app)
	return 0
}

func parseGolden(t *testing.T, id, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return v
}

// TestPaperShapes gates the paper's headline shapes on the committed
// golden output, one row per claim, and logs the paper's value next to the
// model's. A deviation row pins one of EXPERIMENTS.md's Known deviations:
// it holds while the model still deviates, and fails when a change closes
// or widens the deviation, so that the change also updates EXPERIMENTS.md.
func TestPaperShapes(t *testing.T) {
	g := readGoldenTables(t)
	type claim struct {
		name      string
		paper     string
		deviation int // the Known deviation the row pins; 0 for a reproduced claim
		// model returns the model's value and whether the row holds.
		model func() (string, bool)
	}
	var claims []claim

	// Table III: the paper's GFLOPS of each heterogeneous run, reproduced to
	// within a per-application constant (Known deviation 3).
	for _, p := range []struct {
		app   string
		paper float64
	}{{"raytracer", 1883}, {"matmul", 3927}, {"kmeans", 10644}, {"nbody", 13517}} {
		claims = append(claims, claim{
			name:  "tab3/" + p.app,
			paper: fmt.Sprintf("%.0f GFLOPS", p.paper),
			model: func() (string, bool) {
				v := g.tab3(t, p.app)
				r := v / p.paper
				return fmt.Sprintf("%.0f GFLOPS (%.2fx)", v, r), r >= 0.7 && r <= 2.4
			},
		})
	}

	at16 := func(id, label string) float64 { return g.series(t, id, label)["16"] }
	claims = append(claims,
		claim{
			name:  "fig9/opt-scales-worst",
			paper: "optimized matmul has the lowest 16-node speedup",
			model: func() (string, bool) {
				s, u, o := at16("fig9", "satin"), at16("fig9", "unopt"), at16("fig9", "opt")
				return fmt.Sprintf("satin %.2f, unopt %.2f, opt %.2f", s, u, o), o < s && o < u
			},
		})
	for _, id := range []string{"fig7", "fig8"} {
		claims = append(claims, claim{
			name:  id + "/unopt-equals-opt",
			paper: "the raytracer's two Cashmere versions overlap",
			model: func() (string, bool) {
				u, o := g.series(t, id, "unopt"), g.series(t, id, "opt")
				for x, v := range u {
					if o[x] != v {
						return fmt.Sprintf("at %s nodes unopt %g, opt %g", x, v, o[x]), false
					}
				}
				return fmt.Sprintf("equal at all %d node counts", len(u)), len(u) == len(o)
			},
		})
	}
	for _, id := range []string{"fig11", "fig13"} {
		claims = append(claims, claim{
			name:  id + "/opt-near-linear",
			paper: "optimized speedup at 16 nodes >= 15 (scales well)",
			model: func() (string, bool) {
				o := at16(id, "opt")
				return fmt.Sprintf("%.2f", o), o >= 15
			},
		})
	}
	claims = append(claims,
		claim{
			name:      "fig15/above-0.9",
			paper:     "3 of 4 apps above 0.9 heterogeneous efficiency",
			deviation: 5,
			model: func() (string, bool) {
				apps := []string{"raytracer", "matmul", "kmeans", "nbody"}
				eff := g.series(t, "fig15", "heterogeneous")
				var above []string
				for i, app := range apps {
					if eff[strconv.Itoa(i)] > 0.9 {
						above = append(above, app)
					}
				}
				return fmt.Sprintf("%d of 4 above 0.9 %v", len(above), above), len(above) == 1
			},
		},
		claim{
			name:      "fig7/satin-above-cashmere",
			paper:     "Satin's 16-node speedup below Cashmere's",
			deviation: 1,
			model: func() (string, bool) {
				s, o := at16("fig7", "satin"), at16("fig7", "opt")
				return fmt.Sprintf("satin %.3f, cashmere %.3f", s, o), s > o
			},
		})

	for _, c := range claims {
		model, ok := c.model()
		t.Logf("%-26s paper: %-50s model: %s", c.name, c.paper, model)
		switch {
		case ok:
		case c.deviation == 0:
			t.Errorf("%s: the model no longer reproduces the paper: paper %s, model %s", c.name, c.paper, model)
		default:
			t.Errorf("%s: the model no longer shows Known deviation %d (paper %s, model %s); update EXPERIMENTS.md and this row",
				c.name, c.deviation, c.paper, model)
		}
	}
}
