package network

import (
	"testing"
	"time"
	"unsafe"

	"cashmere/internal/simnet"
)

func testConfig() Config {
	return Config{
		Latency:       10 * time.Microsecond,
		Bandwidth:     1e9, // 1 GB/s: 1 byte/ns, easy arithmetic
		PerMessageCPU: 2 * time.Microsecond,
	}
}

func TestPointToPointLatencyAndBandwidth(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	var arrived simnet.Time
	var got Message
	k.Spawn("recv", func(p *simnet.Proc) {
		got = recv(p, f.Endpoint(1))
		arrived = p.Now()
	})
	k.Spawn("send", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 1, "data", 8000, "hello")
	})
	k.Run(0)
	// 2us cpu + 8us egress wire + 10us latency + 8us ingress wire = 28us.
	want := simnet.Time(28 * time.Microsecond)
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
	if got.Payload.(string) != "hello" || got.From != 0 || got.To != 1 || got.Kind != "data" {
		t.Fatalf("bad message %+v", got)
	}
	if f.cfg.TransferTime(8000) != 28*time.Microsecond {
		t.Fatalf("TransferTime = %v", f.cfg.TransferTime(8000))
	}
}

// TestMessageFitsInline: a Message is copied by value at every hop (send,
// arrival record, courier, inbox). Up to 64 bytes the compiler copies it
// inline; above, every copy calls runtime.duffcopy, which was a visible
// share of a message-heavy run's profile. A new field must fit the budget.
func TestMessageFitsInline(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 64 {
		t.Fatalf("network.Message is %d bytes, want at most 64", n)
	}
}

func TestControlLaneBypassesBulkTraffic(t *testing.T) {
	// A tiny message overtakes a large transfer already occupying the links.
	k := simnet.NewKernel(1)
	f := New(k, 3, testConfig())
	var ctlArrived, bulkArrived simnet.Time
	k.Spawn("recvCtl", func(p *simnet.Proc) {
		recv(p, f.Endpoint(1))
		ctlArrived = p.Now()
	})
	k.Spawn("recvBulk", func(p *simnet.Proc) {
		recv(p, f.Endpoint(2))
		bulkArrived = p.Now()
	})
	k.Spawn("bulk", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 2, "bulk", 100_000_000, nil) // 100ms wire
	})
	k.Spawn("ctl", func(p *simnet.Proc) {
		p.Hold(time.Microsecond) // start after the bulk send
		f.Endpoint(0).Send(p, 1, "ctl", 64, nil)
	})
	k.Run(0)
	if ctlArrived > simnet.Time(20*time.Microsecond) {
		t.Fatalf("control message stuck behind bulk transfer: %v", ctlArrived)
	}
	if bulkArrived < simnet.Time(100*time.Millisecond) {
		t.Fatalf("bulk transfer too fast: %v", bulkArrived)
	}
}

func TestSenderBlocksOnlyForEgress(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	var sendDone simnet.Time
	k.Spawn("send", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 1, "data", 8000, nil)
		sendDone = p.Now()
	})
	k.Spawn("recv", func(p *simnet.Proc) { recv(p, f.Endpoint(1)) })
	k.Run(0)
	// Sender occupied for cpu (2us) + egress wire (8us) only.
	if want := simnet.Time(10 * time.Microsecond); sendDone != want {
		t.Fatalf("sender released at %v, want %v", sendDone, want)
	}
}

func TestEgressContentionSerializesSends(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 3, testConfig())
	// Node 0 sends 1 MB to nodes 1 and 2; egress link serializes the wire
	// time (1 ms each).
	var arrivals []simnet.Time
	for dst := 1; dst <= 2; dst++ {
		dst := dst
		k.Spawn("recv", func(p *simnet.Proc) {
			recv(p, f.Endpoint(dst))
			arrivals = append(arrivals, p.Now())
		})
	}
	k.Spawn("send1", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 1, "d", 1_000_000, nil)
	})
	k.Spawn("send2", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 2, "d", 1_000_000, nil)
	})
	k.Run(0)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	last := arrivals[1]
	if arrivals[0] > last {
		last = arrivals[0]
	}
	// Two serialized 1ms wire times on egress, then latency+ingress: the
	// second message cannot complete before 2ms.
	if last < simnet.Time(2*time.Millisecond) {
		t.Fatalf("second arrival %v shows no egress contention", last)
	}
}

func TestDistinctPairsProceedInParallel(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 4, testConfig())
	var done []simnet.Time
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		src, dst := pair[0], pair[1]
		k.Spawn("recv", func(p *simnet.Proc) {
			recv(p, f.Endpoint(dst))
			done = append(done, p.Now())
		})
		k.Spawn("send", func(p *simnet.Proc) {
			f.Endpoint(src).Send(p, dst, "d", 1_000_000, nil)
		})
	}
	k.Run(0)
	// Both transfers use disjoint links: both complete at the uncontended
	// time (~1ms + 1ms + overheads), well before a serialized 2x.
	for _, d := range done {
		if d > simnet.Time(2100*time.Microsecond) {
			t.Fatalf("transfer on disjoint pair finished at %v; links are not independent", d)
		}
	}
}

func TestSelfSendOnlySoftwareOverhead(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	var at simnet.Time
	k.Spawn("self", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 0, "loop", 1<<20, nil)
		m, ok := f.Endpoint(0).TryRecv()
		if !ok || m.Kind != "loop" {
			t.Errorf("self-send not delivered synchronously: %v %v", m, ok)
		}
		at = p.Now()
	})
	k.Run(0)
	if at != simnet.Time(2*time.Microsecond) {
		t.Fatalf("self send took %v, want only 2us software overhead", at)
	}
}

func TestKilledEndpointDropsTraffic(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	f.Endpoint(1).Kill()
	k.Spawn("send", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 1, "d", 100, nil)
	})
	k.Run(0)
	if f.Endpoint(1).inbox.Len() != 0 {
		t.Fatal("dead endpoint received a message")
	}
	if !f.Endpoint(1).dead {
		t.Fatal("killed endpoint reports alive")
	}
	// Dead sender transmits nothing.
	sent := f.MessagesSent()
	k.Spawn("deadsend", func(p *simnet.Proc) {
		f.Endpoint(1).Send(p, 0, "d", 100, nil)
	})
	k.Run(0)
	if f.MessagesSent() != sent {
		t.Fatal("dead endpoint injected traffic")
	}
}

// TestRecvTimeout: a receive with a deadline and no traffic gives up at
// the deadline.
func TestRecvTimeout(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	var ok bool
	var at simnet.Time
	k.Spawn("recv", func(p *simnet.Proc) {
		_, ok = new(receiver).recv(p, f.Endpoint(0), time.Millisecond)
		at = p.Now()
	})
	k.Run(0)
	if ok || at != simnet.Time(time.Millisecond) {
		t.Fatalf("ok=%v at %v, want a timeout at 1ms with no traffic", ok, at)
	}
}

func TestBroadcastReachesAllNodes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 17} {
		k := simnet.NewKernel(1)
		f := New(k, n, testConfig())
		got := make([]bool, n)
		for i := 1; i < n; i++ {
			i := i
			k.Spawn("recv", func(p *simnet.Proc) {
				m := recv(p, f.Endpoint(i))
				if m.Kind != "bcast" {
					t.Errorf("node %d got kind %q", i, m.Kind)
				}
				got[i] = true
			})
		}
		k.Spawn("root", func(p *simnet.Proc) {
			f.Endpoint(0).Broadcast(p, "bcast", 100, 42)
		})
		k.Run(0)
		for i := 1; i < n; i++ {
			if !got[i] {
				t.Fatalf("n=%d: node %d missed broadcast", n, i)
			}
		}
	}
}

func TestBroadcastIsLogDepth(t *testing.T) {
	// With 16 nodes a binomial tree completes in ~4 rounds, far faster than
	// 15 serialized sends from the root.
	cfg := testConfig()
	k := simnet.NewKernel(1)
	const n = 16
	f := New(k, n, cfg)
	var last simnet.Time
	for i := 1; i < n; i++ {
		i := i
		k.Spawn("recv", func(p *simnet.Proc) {
			recv(p, f.Endpoint(i))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Spawn("root", func(p *simnet.Proc) {
		f.Endpoint(0).Broadcast(p, "b", 1_000_000, nil)
	})
	k.Run(0)
	perHop := f.cfg.TransferTime(1_000_000) // ~2.013 ms
	serial := simnet.Duration(n-1) * perHop
	if simnet.Duration(last) >= serial/2 {
		t.Fatalf("broadcast took %v; not meaningfully better than serial %v", simnet.Time(last), serial)
	}
}

func TestStatsAccounting(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	k.Spawn("recv", func(p *simnet.Proc) { recv(p, f.Endpoint(1)) })
	k.Spawn("send", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 1, "d", 123, nil)
	})
	k.Run(0)
	if f.BytesSent() != 123 || f.MessagesSent() != 1 {
		t.Fatalf("stats = %d bytes %d msgs", f.BytesSent(), f.MessagesSent())
	}
}
