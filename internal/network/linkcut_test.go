package network

import (
	"testing"
	"time"

	"cashmere/internal/simnet"
)

// TestLinkCutDropsAndHealRestores cuts the 0<->1 link for a window and
// checks that messages sent into the cut are dropped (and counted), while
// messages after the heal deliver normally.
func TestLinkCutDropsAndHealRestores(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	cut := simnet.Time(1 * time.Millisecond)
	heal := simnet.Time(2 * time.Millisecond)
	f.SetLinkAt(k, 0, 1, cut, false)
	f.SetLinkAt(k, 0, 1, heal, true)

	var got []string
	k.Spawn("recv", func(p *simnet.Proc) {
		for i := 0; i < 2; i++ {
			m := recv(p, f.Endpoint(1))
			got = append(got, m.Payload.(string))
		}
	})
	k.Spawn("send", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 1, "d", 100, "before") // delivered pre-cut
		p.HoldUntil(cut.Add(100 * time.Microsecond))
		f.Endpoint(0).Send(p, 1, "d", 100, "during") // dropped at send
		p.HoldUntil(heal.Add(100 * time.Microsecond))
		f.Endpoint(0).Send(p, 1, "d", 100, "after") // delivered post-heal
	})
	k.Run(0)

	if len(got) != 2 || got[0] != "before" || got[1] != "after" {
		t.Fatalf("delivered %v, want [before after]", got)
	}
	if f.MessagesDropped() != 1 {
		t.Fatalf("dropped %d messages, want 1", f.MessagesDropped())
	}
	if f.Endpoint(0).Dropped() != 1 {
		t.Fatalf("sender-side drop counter = %d, want 1", f.Endpoint(0).Dropped())
	}
}

// TestLinkCutDropsInFlightDelivery severs the receiving half while a
// message is on the wire: the delivery (not the send) sees the cut and the
// message is lost, modeling an asymmetric partition window.
func TestLinkCutDropsInFlightDelivery(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	// Transfer of 100 bytes takes ~12.2us; cut the link at 5us so the
	// message is already past its send point when the link goes down.
	f.SetLinkAt(k, 0, 1, simnet.Time(5*time.Microsecond), false)
	k.Spawn("send", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 1, "d", 100, nil)
	})
	k.Run(0)
	if f.Endpoint(1).inbox.Len() != 0 {
		t.Fatal("message crossed a cut link")
	}
	if f.Endpoint(1).Dropped() != 1 {
		t.Fatalf("receiver-side drop counter = %d, want 1", f.Endpoint(1).Dropped())
	}
}

// TestLinkCutIsDirectionallySymmetric checks that SetLinkAt flips both
// halves: neither side can reach the other during the window.
func TestLinkCutIsDirectionallySymmetric(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 3, testConfig())
	f.SetLinkAt(k, 0, 1, 0, false)
	k.Spawn("x", func(p *simnet.Proc) {
		p.Hold(time.Microsecond)
		if f.Endpoint(0).LinkUp(1) || f.Endpoint(1).LinkUp(0) {
			t.Error("link 0<->1 still up after symmetric cut")
		}
		// Uninvolved links stay up.
		if !f.Endpoint(0).LinkUp(2) || !f.Endpoint(2).LinkUp(1) {
			t.Error("cut leaked onto uninvolved links")
		}
		f.Endpoint(0).Send(p, 1, "d", 10, nil)
		f.Endpoint(1).Send(p, 0, "d", 10, nil)
	})
	k.Run(0)
	if f.Endpoint(0).inbox.Len() != 0 || f.Endpoint(1).inbox.Len() != 0 {
		t.Fatal("traffic crossed a severed link")
	}
	if f.MessagesDropped() != 2 {
		t.Fatalf("dropped %d, want 2", f.MessagesDropped())
	}
}
