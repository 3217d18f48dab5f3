// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. V). Each benchmark runs the corresponding experiment on the
// simulated cluster and reports the headline quantity as a custom metric,
// so `go test -bench=. -benchmem` prints the reproduced numbers:
//
//	BenchmarkFig8RaytracerAbsolute/...   ...   gflops16=<value>
//
// Shapes to compare against the paper are recorded in EXPERIMENTS.md.
package cashmere_test

import (
	"math/rand"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/bench"
	"cashmere/internal/mcl/closure"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
)

// benchScalability runs the scalability study for one app once per
// iteration and reports speedup and absolute GFLOPS on 16 nodes.
func benchScalability(b *testing.B, app string) {
	for i := 0; i < b.N; i++ {
		sp, ab, err := bench.ScalabilityPartitioned(app, 1)
		if err != nil {
			b.Fatal(err)
		}
		if su, ok := sp.Row("opt", 16); ok {
			b.ReportMetric(su, "speedup16")
		}
		if g, ok := ab.Row("opt", 16); ok {
			b.ReportMetric(g, "gflops16")
		}
		if g, ok := ab.Row("satin", 16); ok {
			b.ReportMetric(g, "satin_gflops16")
		}
	}
}

// BenchmarkTable2Classes regenerates Table II (application classes).
func BenchmarkTable2Classes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if bench.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig6KernelPerf regenerates Fig. 6 (kernel GFLOPS per device,
// unoptimized vs optimized) and reports the GTX480 matmul pair.
func BenchmarkFig6KernelPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig6KernelPerformance()
		if err != nil {
			b.Fatal(err)
		}
		// gtx480 is device index 1 in the sorted leaf list.
		if g, ok := fig.Row("matmul/opt", 1); ok {
			b.ReportMetric(g, "matmul_opt_gtx480")
		}
		if g, ok := fig.Row("matmul/unopt", 1); ok {
			b.ReportMetric(g, "matmul_unopt_gtx480")
		}
	}
}

// BenchmarkFig7RaytracerScalability regenerates Figs. 7 and 8.
func BenchmarkFig7RaytracerScalability(b *testing.B) { benchScalability(b, "raytracer") }

// BenchmarkFig9MatmulScalability regenerates Figs. 9 and 10.
func BenchmarkFig9MatmulScalability(b *testing.B) { benchScalability(b, "matmul") }

// BenchmarkFig11KMeansScalability regenerates Figs. 11 and 12.
func BenchmarkFig11KMeansScalability(b *testing.B) { benchScalability(b, "kmeans") }

// BenchmarkFig13NBodyScalability regenerates Figs. 13 and 14.
func BenchmarkFig13NBodyScalability(b *testing.B) { benchScalability(b, "nbody") }

// BenchmarkTable3Heterogeneous regenerates Table III and reports the four
// headline GFLOPS numbers.
func BenchmarkTable3Heterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.GFLOPS, r.App+"_gflops")
		}
	}
}

// BenchmarkFig15Efficiency regenerates Fig. 15 and reports the minimum
// heterogeneous efficiency (the paper: >90% in three of four applications).
func BenchmarkFig15Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig15Efficiency()
		if err != nil {
			b.Fatal(err)
		}
		for j, app := range bench.AppNames {
			if e, ok := fig.Row("heterogeneous", float64(j)); ok {
				b.ReportMetric(e, app+"_eff")
			}
		}
	}
}

// BenchmarkFig16GanttZoom regenerates the zoomed-in Gantt chart of the
// heterogeneous k-means run.
func BenchmarkFig16GanttZoom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := bench.Fig16Gantt()
		if err != nil {
			b.Fatal(err)
		}
		if len(s) == 0 {
			b.Fatal("empty chart")
		}
	}
}

// BenchmarkFig17GanttKernels regenerates the kernels-only Gantt chart.
func BenchmarkFig17GanttKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := bench.Fig17Gantt()
		if err != nil {
			b.Fatal(err)
		}
		if len(s) == 0 {
			b.Fatal("empty chart")
		}
	}
}

// BenchmarkAblationStealPolicy compares Satin's steal-oldest policy with
// steal-newest (DESIGN.md ablation 2) on the matmul tree.
func BenchmarkAblationStealPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oldest, err := bench.AblationStealPolicy(true)
		if err != nil {
			b.Fatal(err)
		}
		newest, err := bench.AblationStealPolicy(false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(oldest, "steal_oldest_gflops")
		b.ReportMetric(newest, "steal_newest_gflops")
	}
}

// BenchmarkAblationScheduler compares the measured-time makespan scheduler
// with a round-robin device scheduler (DESIGN.md ablation 3).
func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		phi, k20, err := bench.AblationFig16Split()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(phi), "phi_jobs")
		b.ReportMetric(float64(k20), "k20_jobs")
	}
}

// BenchmarkVerifiedMatmul runs the verification-scale matmul (kernels
// executed for real through the MCPL interpreter) as a correctness
// regression under benchmark load.
func BenchmarkVerifiedMatmul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.VerifiedMatmul(); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = apps.PaperMatmul // keep the apps package linked for documentation

// kernelBench is one app kernel at a fixed verification-scale problem size,
// executed by both engines for the engine-comparison benchmark.
type kernelBench struct {
	name   string
	src    string
	kernel string
	args   func(r *rand.Rand) []any
}

func benchRandFloats(r *rand.Rand, dims ...int) *interp.Array {
	a := interp.NewFloatArray(dims...)
	for i := range a.F {
		a.F[i] = r.Float64()
	}
	return a
}

func kernelBenches() []kernelBench {
	return []kernelBench{
		{
			name: "matmul", src: apps.MatmulPerfect, kernel: "matmul",
			args: func(r *rand.Rand) []any {
				const n = 64
				return []any{n, n, n, interp.NewFloatArray(n, n),
					benchRandFloats(r, n, n), benchRandFloats(r, n, n)}
			},
		},
		{
			name: "kmeans", src: apps.KMeansPerfect, kernel: "kmeans",
			args: func(r *rand.Rand) []any {
				n, k, d := 512, 16, 4
				return []any{n, k, d, benchRandFloats(r, n, d),
					benchRandFloats(r, k, d), interp.NewIntArray(n)}
			},
		},
		{
			name: "nbody", src: apps.NBodyPerfect, kernel: "nbody",
			args: func(r *rand.Rand) []any {
				const n = 256
				return []any{n, 0, n, benchRandFloats(r, n, 4),
					interp.NewFloatArray(n, 3)}
			},
		},
		{
			name: "raytracer", src: apps.RaytracerPerfect, kernel: "raytrace",
			args: func(r *rand.Rand) []any {
				w, h, rows, samples := 16, 16, 4, 2
				sc := apps.CornellScene()
				return []any{w, h, 0, rows, samples, sc.Dims[0], 1,
					sc, interp.NewFloatArray(rows, w, 3)}
			},
		},
	}
}

// BenchmarkKernelExec compares the two real-execution engines on the app
// kernels: the tree-walking interpreter vs the closure-compiled engine that
// backs codegen.Compiled.Run. Baseline numbers are recorded in
// BENCH_kernels.json.
func BenchmarkKernelExec(b *testing.B) {
	for _, kb := range kernelBenches() {
		prog, err := mcpl.Parse(kb.src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mcpl.Check(prog); err != nil {
			b.Fatal(err)
		}
		args := kb.args(rand.New(rand.NewSource(11)))
		b.Run("interp/"+kb.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := interp.Run(prog, kb.kernel, args...); err != nil {
					b.Fatal(err)
				}
			}
		})
		k, err := closure.Compile(prog, kb.kernel)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("closure/"+kb.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := k.Run(args...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
