package network

import (
	"testing"

	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

func TestEndpointCountersAndSpans(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	rec := trace.New()
	f.SetRecorder(rec)
	k.Spawn("recv", func(p *simnet.Proc) {
		recv(p, f.Endpoint(1))
	})
	k.Spawn("send", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 1, "data", 8000, "payload")
	})
	k.Run(0)

	src, dst := f.Endpoint(0), f.Endpoint(1)
	if src.msgsOut != 1 || src.bytesOut != 8000 {
		t.Fatalf("src out: %d msgs, %d bytes", src.msgsOut, src.bytesOut)
	}
	if dst.msgsIn != 1 || dst.bytesIn != 8000 {
		t.Fatalf("dst in: %d msgs, %d bytes", dst.msgsIn, dst.bytesIn)
	}
	if got := rec.CounterTotal(0, "net.bytes_out"); got != 8000 {
		t.Fatalf("net.bytes_out = %d, want 8000", got)
	}
	if got := rec.CounterTotal(1, "net.bytes_in"); got != 8000 {
		t.Fatalf("net.bytes_in = %d, want 8000", got)
	}
	send, ok := rec.FirstOfKind(trace.KindSend)
	if !ok || send.Node != 0 || send.Queue != "net.tx" || send.Label != "data" {
		t.Fatalf("send span = %+v ok=%v", send, ok)
	}
	if send.End <= send.Start {
		t.Fatalf("send span has no duration: %+v", send)
	}
	recv, ok := rec.FirstOfKind(trace.KindRecv)
	if !ok || recv.Node != 1 || recv.Queue != "net.rx" || recv.Label != "data" {
		t.Fatalf("recv span = %+v ok=%v", recv, ok)
	}
}

func TestCountersWorkWithoutRecorder(t *testing.T) {
	k := simnet.NewKernel(1)
	f := New(k, 2, testConfig())
	k.Spawn("recv", func(p *simnet.Proc) { recv(p, f.Endpoint(1)) })
	k.Spawn("send", func(p *simnet.Proc) {
		f.Endpoint(0).Send(p, 1, "data", 100, nil)
	})
	k.Run(0)
	if f.Endpoint(0).bytesOut != 100 || f.Endpoint(1).bytesIn != 100 {
		t.Fatal("always-on byte counters require no recorder")
	}
}
