package serve

import (
	"testing"
	"time"

	"cashmere/internal/satin"
)

// BenchmarkServeBatchPath measures one remote batch round trip with tracing
// off: a node-0 dispatcher slot pulls a one-request batch and ships it as
// serve_batch, node 1's comm loop hands it to a pooled batch server, which
// runs the batch on node 1's device and replies serve_done, and the slot
// completes the request. The batch is a 256x256 matmul. Slot and server
// run as steps. After a warm-up every round trip must allocate nothing:
// `make bench-allocs` pins it at 0 allocs/op.
func BenchmarkServeBatchPath(b *testing.B) {
	b.Run("launch", func(b *testing.B) {
		w, err := StandardWorkload(1)
		if err != nil {
			b.Fatal(err)
		}
		w.Tenants = w.Tenants[:1] // one class: a 256x256 matmul
		benchBatchPath(b, w)
	})
}

// benchBatchPath is BenchmarkServeBatchPath on the first class of the
// workload's only tenant.
func benchBatchPath(b *testing.B, w *Workload) {
	cl := testCluster(b, 2, 1, w)
	cfg := DefaultConfig(w)
	cfg.Tenants[0].BucketRatePerSec, cfg.Tenants[0].BucketBurst = 1e9, 8
	k, rt := cl.Kernel(), cl.Runtime()
	fe := NewFrontend(k, cfg, nil)
	fe.gensLive = 1 // the benchmark offers the requests; the slot never drains
	disp := newDispatch(fe, cfg, rt)
	rt.SetMessageHandler(disp.handle)
	proxy := disp.newProxy(k, 1)

	const warm = 64
	_, _, err := cl.RunServices(func(ctx *satin.Context) any {
		rt.GoOn(0, func(c *satin.Context) { disp.dispatchLoop(c, 1, proxy) })
		p := ctx.Proc()
		// One round trip per round: admit a request, wake the slot, and
		// give the batch time to cross the network and back.
		round := func() {
			if _, v, _ := fe.Admit(p.Now(), 0, 0); v != Admitted {
				b.Fatal("admit shed")
			}
			fe.work.WakeAll(k)
			p.Hold(5 * time.Millisecond)
		}
		for i := 0; i < warm; i++ {
			round()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if t := &fe.tenants[0]; t.Completed != int64(warm+b.N) || t.Errors != 0 || fe.Batches != int64(warm+b.N) {
		b.Fatalf("%d requests completed (%d failed) in %d batches, want %d round trips", t.Completed, t.Errors, fe.Batches, warm+b.N)
	}
	if disp.nodes[1].servers == nil {
		b.Fatal("node 1 served no batch as steps")
	}
}
