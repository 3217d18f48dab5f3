package ocl

import (
	"errors"
	"testing"
	"time"

	"cashmere/internal/device"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

func newTestDevice(t *testing.T, name string) (*simnet.Kernel, *Device, *trace.Recorder) {
	t.Helper()
	k := simnet.NewKernel(1)
	spec, err := device.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	return k, NewDevice(k, spec, 0, 0, rec), rec
}

func TestAllocAccountingAndOOM(t *testing.T) {
	_, d, _ := newTestDevice(t, "gtx480") // 1.5 GB
	b1 := mustReserve(t, d, 1<<30)
	if d.MemUsed() != 1<<30 {
		t.Fatalf("MemUsed = %d", d.MemUsed())
	}
	var b Buffer
	if ok, err := d.AllocStep(nil, &b, d.Spec().GlobalMem+1); ok || !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("request beyond the device: ok=%v err=%v, want ErrOutOfMemory", ok, err)
	}
	if d.MemUsed() != 1<<30 {
		t.Fatalf("MemUsed after the failed request = %d", d.MemUsed())
	}
	b1.Free()
	if d.MemUsed() != 0 {
		t.Fatalf("MemUsed after free = %d", d.MemUsed())
	}
	mustReserve(t, d, 1<<30)
}

func TestDoubleFreePanics(t *testing.T) {
	_, d, _ := newTestDevice(t, "k20")
	b := mustReserve(t, d, 100)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free()
}

func TestNegativeAllocRejected(t *testing.T) {
	_, d, _ := newTestDevice(t, "k20")
	var b Buffer
	if ok, err := d.AllocStep(nil, &b, -1); ok || err == nil {
		t.Fatal("negative alloc succeeded")
	}
}

func TestTransferTiming(t *testing.T) {
	k, d, rec := newTestDevice(t, "k20") // 6 GB/s, 10us latency
	b := mustReserve(t, d, 600_000_000)  // 100 ms of wire
	var done simnet.Time
	k.Spawn("xfer", func(p *simnet.Proc) {
		d.EnqueueWrite(b.size, "in").Wait(p)
		done = p.Now()
	})
	k.Run(0)
	want := simnet.Time(100*time.Millisecond + 10*time.Microsecond)
	if done != want {
		t.Fatalf("transfer finished at %v, want %v", done, want)
	}
	if d.BytesMoved() != 600_000_000 {
		t.Fatalf("BytesMoved = %d", d.BytesMoved())
	}
	spans := rec.Filter(func(s trace.Span) bool { return s.Kind == trace.KindH2D })
	if len(spans) != 1 || spans[0].Label != "in" {
		t.Fatalf("h2d spans = %v", spans)
	}
}

func TestLaunchTimingAndMeasurement(t *testing.T) {
	k, d, rec := newTestDevice(t, "gtx480")
	cost := device.KernelCost{Flops: 1345e9 / 2, MemBytes: 1, ComputeEff: 1, BandwidthEff: 1} // 0.5s
	var measured time.Duration
	k.Spawn("launch", func(p *simnet.Proc) {
		start := p.Now()
		d.EnqueueLaunch(cost, "matmul").Wait(p)
		measured = time.Duration(p.Now() - start)
	})
	k.Run(0)
	want := d.Spec().KernelTime(cost)
	if measured != want {
		t.Fatalf("measured %v, want %v", measured, want)
	}
	if d.Launches() != 1 || d.KernelBusy() != want {
		t.Fatalf("launches=%d busy=%v", d.Launches(), d.KernelBusy())
	}
	ks := rec.Filter(func(s trace.Span) bool { return s.Kind == trace.KindKernel })
	if len(ks) != 1 || ks[0].Queue != "gtx480#0.kern" {
		t.Fatalf("kernel spans = %v", ks)
	}
}

func TestComputeEngineSerializesKernels(t *testing.T) {
	k, d, _ := newTestDevice(t, "k20")
	cost := device.KernelCost{Flops: 3524e9 / 10, MemBytes: 1, ComputeEff: 1, BandwidthEff: 1} // 100ms
	for i := 0; i < 3; i++ {
		k.Spawn("l", func(p *simnet.Proc) { d.EnqueueLaunch(cost, "k").Wait(p) })
	}
	end := k.Run(0)
	min := simnet.Time(300 * time.Millisecond)
	if end < min {
		t.Fatalf("3 kernels overlapped on one compute engine: end=%v", end)
	}
}

func TestDualDMAOverlapsBothDirections(t *testing.T) {
	// On a dual-engine device an H2D and a D2H of equal size overlap; on a
	// single-engine device they serialize.
	elapsed := func(name string) simnet.Time {
		k := simnet.NewKernel(1)
		spec, _ := device.Lookup(name)
		d := NewDevice(k, spec, 0, 0, nil)
		sz := int64(float64(spec.PCIeBandwidth) / 10) // 100ms of wire each
		k.Spawn("w", func(p *simnet.Proc) { d.EnqueueWrite(sz, "w").Wait(p) })
		k.Spawn("r", func(p *simnet.Proc) { d.EnqueueRead(sz, "r").Wait(p) })
		return k.Run(0)
	}
	dual := elapsed("k20")
	single := elapsed("gtx480")
	if dual >= simnet.Time(150*time.Millisecond) {
		t.Fatalf("dual-engine transfers serialized: %v", dual)
	}
	if single < simnet.Time(200*time.Millisecond) {
		t.Fatalf("single-engine transfers overlapped: %v", single)
	}
}

func TestTransferOverlapsKernel(t *testing.T) {
	// The copy engine and compute engine are independent: a kernel and a
	// transfer issued by two threads overlap (Sec. III-B).
	k, d, _ := newTestDevice(t, "k20")
	cost := device.KernelCost{Flops: 3524e9 / 10, MemBytes: 1, ComputeEff: 1, BandwidthEff: 1} // 100ms
	b := mustReserve(t, d, 600_000_000)                                                        // 100ms wire
	k.Spawn("kern", func(p *simnet.Proc) { d.EnqueueLaunch(cost, "k").Wait(p) })
	k.Spawn("copy", func(p *simnet.Proc) { d.EnqueueWrite(b.size, "w").Wait(p) })
	end := k.Run(0)
	if end > simnet.Time(110*time.Millisecond) {
		t.Fatalf("kernel and transfer serialized: end=%v", end)
	}
}

func TestWriteReadBytes(t *testing.T) {
	k, d, _ := newTestDevice(t, "titan")
	k.Spawn("x", func(p *simnet.Proc) {
		d.EnqueueWrite(1000, "params").Wait(p)
		d.EnqueueRead(1000, "result").Wait(p)
	})
	k.Run(0)
	if d.BytesMoved() != 2000 {
		t.Fatalf("BytesMoved = %d", d.BytesMoved())
	}
}

func TestNewNode(t *testing.T) {
	k := simnet.NewKernel(1)
	n, err := NewNode(k, 3, nil, "k20", "xeon_phi")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Devices) != 2 || n.Devices[0].Name() != "k20#0" || n.Devices[1].Name() != "xeon_phi#1" {
		t.Fatalf("node devices = %v, %v", n.Devices[0].Name(), n.Devices[1].Name())
	}
	if n.Devices[0].nodeID != 3 {
		t.Fatalf("NodeID = %d", n.Devices[0].nodeID)
	}
	if _, err := NewNode(k, 0, nil, "bogus"); err == nil {
		t.Fatal("NewNode accepted unknown device")
	}
}
