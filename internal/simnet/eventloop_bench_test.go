package simnet

import (
	"testing"
	"time"
)

// BenchmarkSimnetEventLoop measures the cost of one scheduled event on the
// kernel's hot path; `make bench-allocs` pins every case at 0 allocs/op.
//
//   - hold: a single process sleeping repeatedly. The next runnable event
//     belongs to the parking process itself, so the wake needs no switch at
//     all.
//   - pingpong: two processes alternating through two channels — the classic
//     one-event-per-wake pattern of the network and Satin layers. Each wake
//     is a coroutine yield to Run's loop and a resume of the peer.
//   - timeout: a request answered before its RecvTimeout(250ms) expires —
//     the Satin comm-loop and steal-probe pattern. The reply supersedes the
//     pending timeout wake in place, so the heap never holds more than one
//     entry per parked process.
func BenchmarkSimnetEventLoop(b *testing.B) {
	b.Run("hold", func(b *testing.B) {
		k := NewKernel(1)
		k.Spawn("ticker", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Hold(time.Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		k.Run(0)
	})

	b.Run("pingpong", func(b *testing.B) {
		k := NewKernel(1)
		a, c := NewChan[int](k), NewChan[int](k)
		k.Spawn("ping", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				a.Send(i)
				c.Recv(p)
			}
		})
		k.Spawn("pong", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				a.Recv(p)
				c.Send(i)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		k.Run(0)
	})
	b.Run("timeout", func(b *testing.B) {
		k := NewKernel(1)
		timeoutExchanges(k, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		k.Run(0)
	})
}

// timeoutExchanges spawns a requester that sends n requests, each awaiting
// its reply with a 250ms RecvTimeout, and a responder that answers every
// request 1µs later, well before the timeout.
func timeoutExchanges(k *Kernel, n int) {
	req, rep := NewChan[int](k), NewChan[int](k)
	k.Spawn("thief", func(p *Proc) {
		for i := 0; i < n; i++ {
			req.Send(i)
			if _, ok := rep.RecvTimeout(p, 250*time.Millisecond); !ok {
				panic("reply timed out")
			}
		}
	})
	k.Spawn("victim", func(p *Proc) {
		for i := 0; i < n; i++ {
			req.Recv(p)
			p.Hold(time.Microsecond)
			rep.Send(i)
		}
	})
}
