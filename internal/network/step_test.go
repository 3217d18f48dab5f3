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

// blockingSenderLogs pins fabricSenders with coroutine senders, seeds 1 to
// 20: the digest of its log and its Events, Stale and Callbacks, as
// recorded when Send held and queued for the egress link in place instead
// of running BeginSend and FinishSend inside StepUntil.
var blockingSenderLogs = [...]string{
	"2590d68c683fdbae", "f655536531db4a1e", "949c897603c0df72", "99d6ed125d07e4c7", "6992b159b228b5b0",
	"1f3571c350d7de25", "3ec92f3af924f6bf", "ca7e2f88e728b844", "8cbc17a7b7556706", "0806785a46d3293f",
	"7021a230ba482d79", "74e1edfa09fdca08", "df0b2f9f0ecfdf38", "1bd2e4d4ca45962b", "826336d549b4db7e",
	"22a6c4f47494cc4f", "e4e87e6d8632bc33", "bf5fde7ed5e43298", "b8202e4ca86352b9", "1582336cf72b9bb7",
}

// senderWakes pins the same runs' wake traces. They were re-recorded when
// control messages began to be posted when their send begins: the log and
// counters stayed, but a control arrival now enters the event queue one
// overhead sooner, which moves queue-depth samples and the interleaving of
// same-time slices on different nodes.
var senderWakes = [...]string{
	"0f6d9109bd834a47", "fe530c3a757d8194", "d94f4a3546f8a40b", "43b325abe6b13552", "550dd4eab975bbbf",
	"001ea55585785ae0", "e28757a6e673afd6", "16284039f56cf977", "97d2de97697848a3", "8f23df04756c434f",
	"182c769a35dcf14f", "a75e6c94a554b7a0", "a3bb5f58c03ede6f", "e507d58f5088cce2", "79da53a760ab961d",
	"c0ae78a532dc4d2c", "18c60f6b89d63478", "27ca1bc672b12ab6", "62d1f047663f9c67", "351e3932c41e63fb",
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
// and arrive at the same times, with the same trajectory counters, as
// recorded when Send blocked in place, and with the same wakes as each
// other, whether each sender is a coroutine in Send or a step process
// using BeginSend and FinishSend (which queue for the egress link and hold
// it for the wire time).
func TestBeginSendMatchesSend(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		coLog, coWakes, coSt := fabricSenders(seed, false)
		mxLog, mxWakes, mxSt := fabricSenders(seed, true)
		if got, want := digest(coLog, fmt.Sprintf("%d %d %d", coSt.Events, coSt.Stale, coSt.Callbacks)), blockingSenderLogs[seed-1]; got != want {
			t.Fatalf("seed %d: coroutine run %s, want the blocking run's %s", seed, got, want)
		}
		if got, want := digest(coWakes), senderWakes[seed-1]; got != want {
			t.Fatalf("seed %d: coroutine wake trace %s, want %s", seed, got, want)
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

// ctlSender sends control messages of four sizes from one node to another.
// Each round it thinks a whole number of microseconds and sends a message
// whose wire time is 64 ns plus 0 to 3 µs (on ctlConfig's fabric), so
// arrivals of different sizes and senders often fall on one instant. As a
// coroutine it sends with Send; as a step process with BeginSend and
// FinishSend or, with post set, with PostControl, holding the overhead
// itself under the stamp it reserved when the send began.
type ctlSender struct {
	name   string
	ep     *Endpoint
	to     int
	rng    *rand.Rand
	rounds int
	log    *strings.Builder
	post   bool

	round int
	phase int // 0 round start, 1 thinking, 2 sending
	s     Sending
}

// ctlConfig moves a byte in a nanosecond, so wire times are exact.
var ctlConfig = Config{Latency: 8 * time.Microsecond, Bandwidth: 1e9, PerMessageCPU: 4 * time.Microsecond}

func (c *ctlSender) think() time.Duration { return time.Duration(c.rng.Intn(6)) * time.Microsecond }

func (c *ctlSender) size() int64 { return 64 + 1000*int64(c.rng.Intn(4)) }

func (c *ctlSender) sent(now simnet.Time) {
	fmt.Fprintf(c.log, "%s sent %d %d\n", c.name, c.round, now)
	c.round, c.phase = c.round+1, 0
}

func (c *ctlSender) run(p *simnet.Proc) {
	for c.round < c.rounds {
		p.Hold(c.think())
		c.ep.Send(p, c.to, c.name, c.size(), c.round)
		c.sent(p.Now())
	}
}

func (c *ctlSender) step(p *simnet.Proc) bool {
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
			c.phase = 2
			if c.post {
				free, _ := c.ep.PostControl(c.to, c.name, c.size(), c.round)
				p.ArmAt(free, p.Kernel().Reserve())
				return true
			}
			if c.ep.BeginSend(p, &c.s, c.to, c.name, c.size(), c.round) {
				return true
			}
		case 2:
			if !c.post && !c.ep.FinishSend(p, &c.s) {
				return true
			}
			c.sent(p.Now())
		}
	}
}

// controlOrderRuns pins TestControlOrderKept, seeds 1 to 10: the digest of
// the log, as recorded when a control message was posted at the end of its
// send's overhead.
var controlOrderRuns = [...]string{
	"555135c6a8438bb2", "e7ad824108e996d1", "bdf28db3b1afd1fc", "bf60e11010529553", "7cd0e4c71fc6fc94",
	"76518bb92443f6a8", "5c9bf623e66d70e7", "e6e7f0f36811f530", "a517fa022d8192ed", "f9a3861f5cd1e94f",
}

// TestControlOrderKept: control messages of different sizes from three
// senders on one node — a coroutine in Send, a step process in BeginSend
// and FinishSend, and one in PostControl — reach one receiver in the same
// order, at the same times, as when each was posted at the end of its
// send's overhead instead of at its start, and every send returns when it
// did.
func TestControlOrderKept(t *testing.T) {
	ties := 0
	for seed := int64(1); seed <= 10; seed++ {
		k := simnet.NewKernel(seed)
		f := New(k, 2, ctlConfig)
		var b strings.Builder
		for i := 0; i < 3; i++ {
			c := &ctlSender{name: fmt.Sprintf("s%d", i), ep: f.Endpoint(0), to: 1, rng: rand.New(rand.NewSource(seed*10 + int64(i))), rounds: 12, log: &b, post: i == 2}
			if i == 0 {
				k.SpawnOn(0, c.name, c.run)
			} else {
				k.SpawnStepOn(0, c.name, c.step)
			}
		}
		last := simnet.Time(-1)
		k.SpawnOn(1, "recv", func(p *simnet.Proc) {
			for {
				m := recv(p, f.Endpoint(1))
				if p.Now() == last {
					ties++
				}
				last = p.Now()
				fmt.Fprintf(&b, "recv %s/%v %d %d\n", m.Kind, m.Payload, m.Size, p.Now())
			}
		})
		k.Run(0)
		k.Close()
		if got, want := digest(b.String()), controlOrderRuns[seed-1]; got != want {
			t.Errorf("seed %d: log %s, want %s:\n%s", seed, got, want, b.String())
		}
	}
	if ties == 0 {
		t.Fatal("no two messages arrived at one instant: the test checks no tie order")
	}
}
