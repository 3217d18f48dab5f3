package simnet

import (
	"testing"
	"time"
)

func TestKernelStats(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k)
	k.Spawn("recv", func(p *Proc) {
		recv(p, ch)
	})
	k.Spawn("send", func(p *Proc) {
		p.Hold(time.Millisecond) // self-wake
		ch.Send(7)
	})
	k.Run(0)
	st := k.Stats()
	if st.Spawns != 2 {
		t.Fatalf("Spawns = %d, want 2", st.Spawns)
	}
	if st.Events == 0 {
		t.Fatalf("Events = 0")
	}
	if st.SelfWakes == 0 {
		t.Fatalf("SelfWakes = 0: Hold should be a self-wake")
	}
	if st.Switches == 0 {
		t.Fatalf("Switches = 0: the channel handoff needs a switch")
	}
	if st.SelfWakes+st.Switches+st.Stale != st.Events {
		t.Fatalf("stats don't add up: %+v", st)
	}
	if st.MaxQueue == 0 {
		t.Fatalf("MaxQueue = 0")
	}
}

func TestStaleWakesCounted(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k)
	k.Spawn("recv", func(p *Proc) {
		// The timeout event outlives the successful receive and arrives
		// stale.
		recvTimeout(p, ch, time.Second)
	})
	k.Spawn("send", func(p *Proc) {
		p.Hold(time.Millisecond)
		ch.Send(1)
	})
	k.Run(0)
	if st := k.Stats(); st.Stale == 0 {
		t.Fatalf("Stale = 0, want the abandoned timeout counted: %+v", st)
	}
}

// recordingTracer captures the Tracer callbacks for inspection.
type recordingTracer struct {
	slices []string
	depths int
}

func (r *recordingTracer) ProcSlice(name string, id int, start, end Time) {
	r.slices = append(r.slices, name)
	if end < start {
		panic("slice ends before it starts")
	}
}

func (r *recordingTracer) QueueDepth(t Time, depth int) { r.depths++ }

func TestTracerReceivesProcSlices(t *testing.T) {
	k := NewKernel(1)
	tr := &recordingTracer{}
	k.SetTracer(tr)
	ch := NewChan[int](k)
	k.Spawn("recv", func(p *Proc) { recv(p, ch) })
	k.Spawn("send", func(p *Proc) {
		p.Hold(time.Millisecond)
		ch.Send(1)
	})
	k.Run(0)
	var sawRecv, sawSend bool
	for _, n := range tr.slices {
		sawRecv = sawRecv || n == "recv"
		sawSend = sawSend || n == "send"
	}
	if !sawRecv || !sawSend {
		t.Fatalf("slices %v missing a process", tr.slices)
	}
	if tr.depths == 0 {
		t.Fatal("no queue-depth samples")
	}
}

// TestSupersededTimeoutsStayOutOfHeap: a reply that beats its deadline
// supersedes the pending timeout wake in place, so 10,000 request/reply
// exchanges never grow the event queue, yet every superseded wake is still
// counted as stale exactly once.
func TestSupersededTimeoutsStayOutOfHeap(t *testing.T) {
	const n = 10000
	k := NewKernel(1)
	timeoutExchanges(k, n, false)
	end := k.Run(0)
	st := k.Stats()
	if st.MaxQueue > 4 {
		t.Errorf("MaxQueue = %d, want <= 4", st.MaxQueue)
	}
	if st.Stale != n {
		t.Errorf("Stale = %d, want %d", st.Stale, n)
	}
	if want := Time(n * time.Microsecond); end != want {
		t.Errorf("run ended at %v, want %v", end, want)
	}
}

// blocked counts the live processes parked with no pending wake event:
// blocked on a chan, resource or future.
func blocked(k *Kernel) int {
	n := 0
	for _, p := range k.live {
		if p.slot < 0 {
			n++
		}
	}
	return n
}

// TestCloseReleasesParkedProcesses: Close resumes every process still
// parked after the queue drained, each exits running its deferred calls,
// and the closed kernel refuses to run again.
func TestCloseReleasesParkedProcesses(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k)
	deferred := 0
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			defer func() { deferred++ }()
			recv(p, ch) // never sent to
		})
	}
	k.Run(0)
	if len(k.live) != 3 || blocked(k) != 3 {
		t.Fatalf("before Close: alive=%d blocked=%d, want 3 and 3", len(k.live), blocked(k))
	}
	k.Close()
	if len(k.live) != 0 || deferred != 3 {
		t.Fatalf("after Close: alive=%d, deferred calls run=%d; want 0 and 3", len(k.live), deferred)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a closed kernel did not panic")
		}
	}()
	k.Run(0)
}
