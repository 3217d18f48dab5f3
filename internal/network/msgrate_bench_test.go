package network

import (
	"testing"

	"cashmere/internal/simnet"
)

// BenchmarkNetworkMessageRate measures steady-state point-to-point message
// throughput: one endpoint streams b.N messages to another, which receives
// them all. The bulk case exercises the full egress/latency/ingress pipeline
// with a pooled courier per in-flight message; the ctl case exercises the
// control lane. Steady-state traffic must run at 0 allocs/op (`make
// bench-allocs` enforces this).
func BenchmarkNetworkMessageRate(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int64
	}{
		{"bulk", 64 << 10},
		{"ctl", 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			k := simnet.NewKernel(1)
			f := New(k, 2, QDRInfiniBand())
			k.Spawn("send", func(p *simnet.Proc) {
				for i := 0; i < b.N; i++ {
					f.Endpoint(0).Send(p, 1, "m", tc.size, nil)
				}
			})
			k.Spawn("recv", func(p *simnet.Proc) {
				for i := 0; i < b.N; i++ {
					f.Endpoint(1).Recv(p)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			k.Run(0)
		})
	}
}
