package network

import (
	"testing"

	"cashmere/internal/simnet"
)

// BenchmarkNetworkMessageRate measures steady-state point-to-point message
// throughput: senders stream b.N messages to one endpoint, which receives
// them all. The bulk case exercises the full egress/latency/ingress pipeline
// with a pooled courier per in-flight message; the ctl case exercises the
// control lane. In the contended case two senders send bulk messages in
// step, so every second arrival's courier queues on the receiver's ingress
// link (Resource.AcquireStep) behind the first. The stepped case is the
// bulk case with a step process sending (BeginSend, FinishSend). Steady-state
// traffic must run at 0 allocs/op (`make bench-allocs` enforces this).
func BenchmarkNetworkMessageRate(b *testing.B) {
	for _, tc := range []struct {
		name    string
		size    int64
		senders int
		stepped bool
	}{
		{"bulk", 64 << 10, 1, false},
		{"ctl", 64, 1, false},
		{"contended", 64 << 10, 2, false},
		{"stepped", 64 << 10, 1, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			k := simnet.NewKernel(1)
			f := New(k, tc.senders+1, QDRInfiniBand())
			dst := tc.senders
			for s := 0; s < tc.senders; s++ {
				n := (b.N + tc.senders - 1 - s) / tc.senders // b.N in all
				if tc.stepped {
					var sending Sending
					i, busy := 0, false
					k.SpawnStepOn(s, "send", func(p *simnet.Proc) bool {
						ep := f.Endpoint(s)
						for {
							if busy {
								if !ep.FinishSend(p, &sending) {
									return true
								}
								busy, i = false, i+1
							}
							if i == n {
								return false
							}
							if busy = ep.BeginSend(p, &sending, dst, "m", tc.size, nil); busy {
								return true
							}
							i++
						}
					})
					continue
				}
				k.Spawn("send", func(p *simnet.Proc) {
					for i := 0; i < n; i++ {
						f.Endpoint(s).Send(p, dst, "m", tc.size, nil)
						if tc.senders > 1 {
							// Pause for one wire time, so the ingress link
							// drains each round's arrivals before the next.
							p.Hold(f.cfg.wire(tc.size))
						}
					}
				})
			}
			k.Spawn("recv", func(p *simnet.Proc) {
				var rx receiver
				for i := 0; i < b.N; i++ {
					rx.recv(p, f.Endpoint(dst), -1)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			k.Run(0)
			b.StopTimer()
			if tc.senders > 1 && b.N > 1 && f.Endpoint(dst).courierSeq != tc.senders {
				b.Fatalf("%d couriers carried the contended traffic, want %d (one queued per round)", f.Endpoint(dst).courierSeq, tc.senders)
			}
		})
	}
}
