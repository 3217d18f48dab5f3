package core_test

import (
	"testing"

	"cashmere/internal/core"
)

// newClusterSink keeps BenchmarkNewCluster's result live.
var newClusterSink *core.Cluster

// BenchmarkNewCluster times the set-up of a 16-node GTX480 cluster, the
// largest of the Figs. 7-14 grid: the partitioned kernel, the Satin runtime
// with its per-node victim streams, and each node's devices, queues, SVM
// space and scheduler. Run it with -benchmem.
func BenchmarkNewCluster(b *testing.B) {
	cfg := core.DefaultConfig(16, "gtx480")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl, err := core.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		newClusterSink = cl
	}
}
