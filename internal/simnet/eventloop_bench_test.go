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
//   - pingpong: two coroutines alternating through two channels, each
//     receiving through Chan.Await inside StepUntil — the classic
//     one-event-per-wake pattern of the network and Satin layers. Each wake
//     hands back to its body: a coroutine yield to Run's loop and a resume
//     of the peer.
//   - timeout: a request whose reply, awaited with a 250ms deadline, comes
//     before the deadline — the Satin comm-loop and steal-probe pattern. The
//     reply supersedes the pending timeout wake in place, so the heap never
//     holds more than one entry per parked process.
//   - step: the same exchange with the responder as a step process, the
//     Satin comm-loop shape: the responder's wakes run inline in the event
//     loop, so only the requester's wakes switch.
//   - stepuntil: a coroutine whose deadlines expire inside StepUntil, three
//     in a row, the last of them handing back to the body — the idle-thief
//     shape: one wake in three resumes the coroutine (here as a self-wake),
//     and the other two run as steps.
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
			var rx receiver[int]
			for i := 0; i < b.N; i++ {
				a.Send(i)
				rx.recv(p, c, -1)
			}
		})
		k.Spawn("pong", func(p *Proc) {
			var rx receiver[int]
			for i := 0; i < b.N; i++ {
				rx.recv(p, a, -1)
				c.Send(i)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		k.Run(0)
	})
	b.Run("stepuntil", func(b *testing.B) {
		k := NewKernel(1)
		e := &expiries{ch: NewChan[int](k), left: 3}
		step := e.step
		k.Spawn("thief", func(p *Proc) {
			for i := 0; i < b.N; i += 3 {
				p.StepUntil(step)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		k.Run(0)
	})
	for _, c := range []struct {
		name string
		step bool
	}{{"timeout", false}, {"step", true}} {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel(1)
			timeoutExchanges(k, b.N, c.step)
			b.ReportAllocs()
			b.ResetTimer()
			k.Run(0)
		})
	}
}

// expiries is the step of the stepuntil case: it awaits a channel nobody
// sends to, with a 1µs deadline, and hands back at every third wake.
type expiries struct {
	ch   *Chan[int]
	left int
}

func (e *expiries) step(p *Proc) bool {
	if e.left == 0 {
		e.left = 3
		return false
	}
	e.left--
	e.ch.Unwait(p)
	e.ch.Await(p, p.Now().Add(time.Microsecond))
	return true
}

// timeoutExchanges spawns a requester that sends n requests, each awaiting
// its reply with a 250ms deadline, and a responder — a coroutine, or a
// step process when step is set — that answers every request 1µs later,
// well before the timeout.
func timeoutExchanges(k *Kernel, n int, step bool) {
	req, rep := NewChan[int](k), NewChan[int](k)
	k.Spawn("thief", func(p *Proc) {
		var rx receiver[int]
		for i := 0; i < n; i++ {
			req.Send(i)
			if _, ok := rx.recv(p, rep, 250*time.Millisecond); !ok {
				panic("reply timed out")
			}
		}
	})
	r := &reactor{
		in: req, out: []*Chan[int]{rep}, timeout: -1, n: n,
		service: func(int) Duration { return time.Microsecond },
	}
	if step {
		k.SpawnStepOn(0, "victim", r.step)
	} else {
		k.Spawn("victim", r.run)
	}
}
