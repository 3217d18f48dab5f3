// Graph: compound multi-kernel dataflow graphs.
//
// A k-means-style pipeline — assign points to centroids, score each point
// against its centroid, filter the scores — is declared once as a dataflow
// graph (buffers are typed edges, kernels are stages) and submitted
// repeatedly against a cluster of heterogeneous nodes (K20 + Xeon Phi). The
// runtime schedules the whole DAG at once:
//
//   - the assign→score and score→filter intermediates chain
//     device-resident, so they never cross PCIe;
//   - the bulk points input uploads once per node and stays resident across
//     iterations (SetVersion would re-ship it);
//   - data-parallel stages may split across the node's devices with slice
//     sizes proportional to roofline-predicted throughput.
//
// The same pipeline also runs as the equivalent naive per-kernel launch
// sequence (every stage ships its inputs down and outputs back), so the
// printed comparison shows exactly what the graph machinery saves. All
// numbers are virtual (trajectory-determined): output is byte-identical at
// any -partitions count, which the CI determinism job diffs.
//
// Run with: go run ./examples/graph [-iters 5] [-partitions 4] [-metrics]
package main

import (
	"flag"
	"fmt"
	"log"

	"cashmere"
)

const assignSrc = `
perfect void assign(int n, int k, int d,
    float[n,d] points, float[k,d] centroids, int[n] asn) {
  foreach (int i in n threads) {
    int best = 0;
    float bestDist = 1e30;
    for (int c = 0; c < k; c++) {
      float dist = 0.0;
      for (int f = 0; f < d; f++) {
        float diff = points[i,f] - centroids[c,f];
        dist += diff * diff;
      }
      if (dist < bestDist) {
        bestDist = dist;
        best = c;
      }
    }
    asn[i] = best;
  }
}
`

const scoreSrc = `
perfect void score(int n, int k, int d,
    float[n,d] points, float[k,d] centroids, int[n] asn, float[n] dist) {
  foreach (int i in n threads) {
    int c = asn[i];
    float acc = 0.0;
    for (int f = 0; f < d; f++) {
      float diff = points[i,f] - centroids[c,f];
      acc += diff * diff;
    }
    dist[i] = acc;
  }
}
`

const filterSrc = `
perfect void filter(int n, float[n] dist, int[n] mask) {
  foreach (int i in n threads) {
    mask[i] = 0;
    if (dist[i] < 1.0) {
      mask[i] = 1;
    }
  }
}
`

const (
	nPoints   = 1 << 20 // 16 MiB of points at d=4
	nClusters = 64
	nDims     = 4
)

// pipeline declares the three-stage graph. Buffer sizes are the real array
// sizes; the scheduler derives every placement from them and the kernels'
// roofline costs.
func pipeline() *cashmere.GraphSpec {
	gs := cashmere.NewGraphSpec("kmeans-pipe")
	points := gs.Input("points", 4*nPoints*nDims)
	cents := gs.Input("centroids", 4*nClusters*nDims)
	asn := gs.Intermediate("asn", 4*nPoints)
	dist := gs.Intermediate("dist", 4*nPoints)
	mask := gs.Output("mask", 4*nPoints)
	params := map[string]int64{"n": nPoints, "k": nClusters, "d": nDims}
	gs.Stage(cashmere.StageSpec{
		Kernel: "assign", Params: params, SplitParam: "n",
		Reads: []*cashmere.GraphBuffer{points}, Broadcast: []*cashmere.GraphBuffer{cents},
		Writes: []*cashmere.GraphBuffer{asn},
	})
	gs.Stage(cashmere.StageSpec{
		Kernel: "score", Params: params, SplitParam: "n",
		Reads: []*cashmere.GraphBuffer{points, asn}, Broadcast: []*cashmere.GraphBuffer{cents},
		Writes: []*cashmere.GraphBuffer{dist},
	})
	gs.Stage(cashmere.StageSpec{
		Kernel: "filter", Params: params, SplitParam: "n",
		Reads:  []*cashmere.GraphBuffer{dist},
		Writes: []*cashmere.GraphBuffer{mask},
	})
	return gs
}

// run executes iters submissions of the pipeline on every node of a fresh
// cluster — as one dataflow graph per submission, or as the naive per-kernel
// launch sequence — and reports the virtual makespan plus total PCIe bytes.
func run(nodes, partitions, iters int, graph bool) (cashmere.Time, *cashmere.Metrics) {
	cfg := cashmere.DefaultConfig(nodes, "k20")
	for i := range cfg.Nodes {
		cfg.Nodes[i] = cashmere.NodeSpec{Devices: []string{"k20", "xeon_phi"}}
	}
	cfg.Partitions = partitions
	cl, err := cashmere.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for name, src := range map[string]string{"assign": assignSrc, "score": scoreSrc, "filter": filterSrc} {
		ks, err := cashmere.NewKernelSet(name, src)
		if err != nil {
			log.Fatal(err)
		}
		if err := cl.Register(ks); err != nil {
			log.Fatal(err)
		}
	}
	gs := pipeline()
	// Every leaf is a many-core spawn, so nothing is stealable: run without
	// idle workers.
	_, end, err := cl.RunServices(func(ctx *cashmere.Context) any {
		ctx.EnableManyCore()
		for j := 0; j < nodes; j++ {
			ctx.Spawn(cashmere.JobDesc{Name: "pipe", InputBytes: 64, ResultBytes: 64},
				func(c *cashmere.Context) any {
					for it := 0; it < iters; it++ {
						if graph {
							if err := cashmere.RunGraph(c, gs); err != nil {
								log.Fatal(err)
							}
						} else if err := gs.RunNaive(c); err != nil {
							log.Fatal(err)
						}
					}
					return nil
				})
		}
		ctx.Sync()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return end, cl.CollectMetrics()
}

func main() {
	var (
		nodes      = flag.Int("nodes", 4, "number of K20+XeonPhi nodes")
		iters      = flag.Int("iters", 5, "pipeline submissions per leaf")
		metrics    = flag.Bool("metrics", false, "print the graph run's metrics dump")
		partitions = flag.Int("partitions", 1,
			"split the simulation into N conservatively synchronized partitions (same output)")
	)
	flag.Parse()

	gEnd, gm := run(*nodes, *partitions, *iters, true)
	nEnd, nm := run(*nodes, *partitions, *iters, false)
	gBytes, nBytes := gm.Int("mcl.bytes_moved"), nm.Int("mcl.bytes_moved")

	fmt.Printf("k-means pipeline (assign -> score -> filter), %d nodes x 2 devices, %d leaves x %d iterations\n\n",
		*nodes, *nodes, *iters)
	fmt.Printf("naive per-kernel launches: %14v virtual, %6d MiB over PCIe\n", nEnd, nBytes>>20)
	fmt.Printf("dataflow graph:            %14v virtual, %6d MiB over PCIe\n", gEnd, gBytes>>20)
	fmt.Printf("\nspeedup %.2fx, bytes moved -%0.f%% (runs %d, stages %d, resident hits %d, bytes saved %d MiB)\n",
		float64(nEnd)/float64(gEnd),
		100*(1-float64(gBytes)/float64(nBytes)),
		gm.Int("graph.runs"), gm.Int("graph.stages"),
		gm.Int("graph.resident_hits"), gm.Int("graph.bytes_moved_saved")>>20)
	fmt.Println("\nintermediates chain device-resident; the bulk points input uploads once per")
	fmt.Println("node and is a resident hit on every later iteration.")
	if *metrics {
		fmt.Print(gm.Format())
	}
}
