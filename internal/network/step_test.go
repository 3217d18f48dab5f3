package network

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cashmere/internal/simnet"
)

// wakeLog records every process slice and queue-depth sample of a kernel.
type wakeLog struct{ b strings.Builder }

func (w *wakeLog) ProcSlice(name string, id int, start, end simnet.Time) {
	fmt.Fprintf(&w.b, "%s#%d %d-%d\n", name, id, start, end)
}

func (w *wakeLog) QueueDepth(t simnet.Time, depth int) { fmt.Fprintf(&w.b, "q %d %d\n", t, depth) }

// sender sends a few messages from one endpoint: each round it thinks,
// then sends a bulk, control or intra-node message to a random node and
// logs when the send returned. run is the sender as a coroutine (Send);
// step is the sender as a step process (BeginSend, FinishSend). Both draw
// the same values at the same wakes, so both must produce the same events.
type sender struct {
	name   string
	f      *Fabric
	from   int
	rng    *rand.Rand
	rounds int
	log    *strings.Builder

	// step-process state between wakes
	round int
	phase int // 0 round start, 1 thinking, 2 sending
	s     Sending
}

func (c *sender) think() time.Duration { return time.Duration(c.rng.Intn(40)) * time.Microsecond }

// message draws the round's destination and size: a quarter are control
// messages, the rest bulk transfers of up to 256 KiB.
func (c *sender) message() (to int, size int64) {
	to = c.rng.Intn(c.f.Size())
	if c.rng.Intn(4) == 0 {
		return to, 64
	}
	return to, ControlThreshold + int64(c.rng.Intn(256<<10))
}

func (c *sender) logSent(now simnet.Time) {
	fmt.Fprintf(c.log, "%s sent %d %d\n", c.name, c.round, now)
}

func (c *sender) run(p *simnet.Proc) {
	for ; c.round < c.rounds; c.round++ {
		p.Hold(c.think())
		to, size := c.message()
		c.f.Endpoint(c.from).Send(p, to, c.name, size, c.round)
		c.logSent(p.Now())
	}
}

func (c *sender) step(p *simnet.Proc) bool {
	ep := c.f.Endpoint(c.from)
	for {
		switch c.phase {
		case 0:
			if c.round == c.rounds {
				return false
			}
			c.phase = 1
			p.Arm(c.think())
			return true
		case 1:
			to, size := c.message()
			if ep.BeginSend(p, &c.s, to, c.name, size, c.round) {
				c.phase = 2
				return true
			}
			c.logSent(p.Now())
			c.round, c.phase = c.round+1, 0
		case 2:
			if !ep.FinishSend(p, &c.s) {
				return true
			}
			c.logSent(p.Now())
			c.round, c.phase = c.round+1, 0
		}
	}
}

// fabricSenders runs two senders per endpoint of a three-node fabric, so
// bulk sends queue on egress links, against one receiver per endpoint that
// logs every arrival. With mixed set, the first sender is a step process
// and each other one a coroutine or a step process at random; otherwise
// all are coroutines. It returns the log, the wake trace and the kernel's
// counters.
func fabricSenders(seed int64, mixed bool) (log, wakes string, st simnet.Stats) {
	k := simnet.NewKernel(seed)
	w := &wakeLog{}
	k.SetTracer(w)
	f := New(k, 3, QDRInfiniBand())
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < 6; i++ {
		c := &sender{name: fmt.Sprintf("s%d", i), f: f, from: i % 3, rng: rand.New(rand.NewSource(rng.Int63())), rounds: 3 + rng.Intn(6), log: &b}
		if stepped := rng.Intn(2) == 0 || i == 0; stepped && mixed {
			k.SpawnStepOn(c.from, c.name, c.step)
		} else {
			k.SpawnOn(c.from, c.name, c.run)
		}
	}
	for n := 0; n < 3; n++ {
		ep := f.Endpoint(n)
		k.SpawnOn(n, fmt.Sprintf("recv%d", n), func(p *simnet.Proc) {
			for {
				m := recv(p, ep)
				fmt.Fprintf(&b, "recv%d %s/%v %d %d\n", n, m.Kind, m.Payload, m.Size, p.Now())
			}
		})
	}
	k.Run(0)
	k.Close()
	return b.String(), w.b.String(), k.Stats()
}

// blockingSenderRuns pins fabricSenders with coroutine senders, seeds 1 to
// 20 (the digest of its log, wake trace and Events, Stale and Callbacks),
// as recorded when Send held and queued for the egress link in place
// instead of running BeginSend and FinishSend inside StepUntil.
var blockingSenderRuns = [...]string{
	"4eaba1874401d0e7", "2af2a3f952fec0d8", "816a69ccb3f5b6c7", "d4671a5c05a3e094", "d528fe6e85fe3079",
	"7e5abda9e4b5f97e", "a2f7d17f5c4c27cd", "4afe87de37d2596b", "95aa2dc41f3f2d68", "06146dbb9e0486d6",
	"d2183ea214c6e55c", "94adfacaad8f05ca", "cd105780b76ff231", "8fa1df6a8a6b6120", "e791589fd2ef6f8f",
	"4b0609474d3d4636", "48e0e1925787e033", "6a4a653d3d9a6cd4", "c36b6044a2010274", "d354b19a9b47f06f",
}

// digest is a short hash of a run's outputs, for pinning them as literals.
func digest(parts ...string) string {
	h := sha256.New()
	for _, s := range parts {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestBeginSendMatchesSend: bulk, control and intra-node messages leave
// and arrive at the same times, with the same wakes and trajectory
// counters, as recorded when Send blocked in place, whether each sender is
// a coroutine in Send or a step process using BeginSend and FinishSend
// (which queue for the egress link and hold it for the wire time).
func TestBeginSendMatchesSend(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		coLog, coWakes, coSt := fabricSenders(seed, false)
		mxLog, mxWakes, mxSt := fabricSenders(seed, true)
		if got, want := digest(coLog, coWakes, fmt.Sprintf("%d %d %d", coSt.Events, coSt.Stale, coSt.Callbacks)), blockingSenderRuns[seed-1]; got != want {
			t.Fatalf("seed %d: coroutine run %s, want the blocking run's %s", seed, got, want)
		}
		if coLog != mxLog {
			t.Fatalf("seed %d: logs differ:\ncoroutines\n%s\nmixed\n%s", seed, coLog, mxLog)
		}
		if coWakes != mxWakes {
			t.Fatalf("seed %d: wake traces differ", seed)
		}
		if coSt.Events != mxSt.Events || coSt.Stale != mxSt.Stale || coSt.Callbacks != mxSt.Callbacks {
			t.Fatalf("seed %d: stats differ:\ncoroutines %+v\nmixed      %+v", seed, coSt, mxSt)
		}
		if coSt.Steps == 0 || mxSt.Steps <= coSt.Steps || mxSt.Events != mxSt.Switches+mxSt.SelfWakes+mxSt.Steps+mxSt.Callbacks {
			t.Fatalf("seed %d: coroutines %+v, mixed %+v: the step senders must run as steps", seed, coSt, mxSt)
		}
	}
}
