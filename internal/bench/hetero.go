package bench

import (
	"fmt"
	"strings"
	"sync"

	"cashmere/internal/apps"
	"cashmere/internal/core"
)

// HeteroConfig describes one heterogeneous cluster configuration of
// Table III as a list of per-node device sets.
type HeteroConfig struct {
	Name  string
	Nodes []core.NodeSpec
}

// Describe summarizes the device population, e.g. "10 gtx480, 2 c2050, ...".
func (h HeteroConfig) Describe() string {
	counts := map[string]int{}
	var order []string
	for _, n := range h.Nodes {
		for _, d := range n.Devices {
			if counts[d] == 0 {
				order = append(order, d)
			}
			counts[d]++
		}
	}
	parts := make([]string, len(order))
	for i, d := range order {
		parts[i] = fmt.Sprintf("%d %s", counts[d], d)
	}
	return strings.Join(parts, ", ")
}

func baseHetero() []core.NodeSpec {
	var nodes []core.NodeSpec
	add := func(count int, devs ...string) {
		for i := 0; i < count; i++ {
			nodes = append(nodes, core.NodeSpec{Devices: devs})
		}
	}
	add(10, "gtx480")
	add(2, "c2050")
	add(1, "gtx680")
	add(1, "titan")
	add(1, "hd7970")
	return nodes
}

// Table3Configs returns the per-application configurations of Table III.
// The Xeon Phis sit in K20 nodes, as on DAS-4 (Sec. IV).
func Table3Configs() map[string]HeteroConfig {
	a := HeteroConfig{Name: "15dev", Nodes: baseHetero()}

	km := HeteroConfig{Name: "23dev", Nodes: baseHetero()}
	for i := 0; i < 6; i++ {
		km.Nodes = append(km.Nodes, core.NodeSpec{Devices: []string{"k20"}})
	}
	km.Nodes = append(km.Nodes, core.NodeSpec{Devices: []string{"k20", "xeon_phi"}})

	nb := HeteroConfig{Name: "24dev", Nodes: baseHetero()}
	for i := 0; i < 5; i++ {
		nb.Nodes = append(nb.Nodes, core.NodeSpec{Devices: []string{"k20"}})
	}
	nb.Nodes = append(nb.Nodes, core.NodeSpec{Devices: []string{"k20", "xeon_phi"}})
	nb.Nodes = append(nb.Nodes, core.NodeSpec{Devices: []string{"k20", "xeon_phi"}})

	return map[string]HeteroConfig{
		"raytracer": a,
		"matmul":    a,
		"kmeans":    km,
		"nbody":     nb,
	}
}

// runHetero executes the app's paper problem (optimized kernels, as in
// Sec. V-C) on the given configuration.
func runHetero(appName string, cfgNodes []core.NodeSpec, record bool) (apps.Result, *core.Cluster, error) {
	d := drivers()[appName]
	cfg := core.DefaultConfig(len(cfgNodes), "gtx480")
	cfg.Nodes = cfgNodes
	cfg.Record = record
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return apps.Result{}, nil, err
	}
	ks, err := kernelsFor(appName, apps.CashmereOptimized)
	if err != nil {
		return apps.Result{}, nil, err
	}
	if err := cl.Register(ks); err != nil {
		return apps.Result{}, nil, err
	}
	res, err := d.run(cl, apps.CashmereOptimized)
	return res, cl, err
}

// Table3Row is one row of the reproduced Table III.
type Table3Row struct {
	App           string
	GFLOPS        float64
	Configuration string
}

// Table3 reproduces the heterogeneous performance table. The four
// application runs are independent simulations and execute concurrently.
func Table3() ([]Table3Row, error) {
	configs := Table3Configs()
	rows := make([]Table3Row, len(AppNames))
	err := runParallel(len(AppNames), func(i int) error {
		app := AppNames[i]
		cfg := configs[app]
		res, _, err := runHetero(app, cfg.Nodes, false)
		if err != nil {
			return fmt.Errorf("tab3 %s: %w", app, err)
		}
		rows[i] = Table3Row{App: app, GFLOPS: res.GFLOPS, Configuration: cfg.Describe()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTable3 renders the rows like the paper's table.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("== tab3: Performance of the heterogeneous executions ==\n")
	fmt.Fprintf(&b, "%-12s %18s   %s\n", "application", "performance(GFLOPS)", "configuration")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %18.0f   %s\n", r.App, r.GFLOPS, r.Configuration)
	}
	return b.String()
}

// gflopsCache memoizes single-node GFLOPS across concurrent Fig. 15 rows.
// Simulations are deterministic, so a racing miss recomputes the identical
// value; the mutex only guards the map itself.
type gflopsCache struct {
	mu sync.Mutex
	m  map[string]float64
}

// singleNodeGFLOPS runs the app's paper problem on a one-node cluster with
// the given device set (the per-node term of the paper's maximum-attainable
// performance).
func singleNodeGFLOPS(appName string, devices []string, cache *gflopsCache) (float64, error) {
	key := appName + "/" + strings.Join(devices, "+")
	cache.mu.Lock()
	v, ok := cache.m[key]
	cache.mu.Unlock()
	if ok {
		return v, nil
	}
	res, _, err := runHetero(appName, []core.NodeSpec{{Devices: devices}}, false)
	if err != nil {
		return 0, err
	}
	cache.mu.Lock()
	cache.m[key] = res.GFLOPS
	cache.mu.Unlock()
	return res.GFLOPS, nil
}

// Fig15Efficiency reproduces Fig. 15: the efficiency of the heterogeneous
// executions (measured performance divided by the sum of single-node
// performance over all nodes of the configuration), next to the efficiency
// of the homogeneous 16-GTX480 runs from Sec. V-B.
func Fig15Efficiency() (Figure, error) {
	fig := Figure{
		ID: "fig15", Title: "Efficiency of heterogeneous executions",
		XLabel: "app#", YLabel: "efficiency",
		Notes: []string{"x encodes the application: " + strings.Join(AppNames, ", ")},
	}
	configs := Table3Configs()
	cache := &gflopsCache{m: map[string]float64{}}
	het := Series{Label: "heterogeneous"}
	hom := Series{Label: "homogeneous-16"}
	type row struct{ het, hom float64 }
	rows := make([]row, len(AppNames))
	err := runParallel(len(AppNames), func(i int) error {
		app := AppNames[i]
		cfg := configs[app]
		res, _, err := runHetero(app, cfg.Nodes, false)
		if err != nil {
			return err
		}
		attainable := 0.0
		for _, nd := range cfg.Nodes {
			g, err := singleNodeGFLOPS(app, nd.Devices, cache)
			if err != nil {
				return err
			}
			attainable += g
		}
		r16, err := runVariant(app, 16, apps.CashmereOptimized, 1)
		if err != nil {
			return err
		}
		g1, err := singleNodeGFLOPS(app, []string{"gtx480"}, cache)
		if err != nil {
			return err
		}
		rows[i] = row{het: res.GFLOPS / attainable, hom: r16.GFLOPS / (16 * g1)}
		return nil
	})
	if err != nil {
		return fig, err
	}
	for i := range AppNames {
		het.X = append(het.X, float64(i))
		het.Y = append(het.Y, rows[i].het)
		hom.X = append(hom.X, float64(i))
		hom.Y = append(hom.Y, rows[i].hom)
	}
	fig.Series = append(fig.Series, het, hom)
	return fig, nil
}
