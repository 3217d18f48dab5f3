package ocl

import (
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

func TestDeviceUtilizationAccounting(t *testing.T) {
	k, d, rec := newTestDevice(t, "k20")
	cost := device.KernelCost{Flops: 1e9, MemBytes: 1 << 20, ComputeEff: 0.5, BandwidthEff: 0.5}
	k.Spawn("w", func(p *simnet.Proc) {
		var buf Buffer
		if err := alloc(p, d, &buf, 4<<20); err != nil {
			t.Error(err)
			return
		}
		d.EnqueueWrite(buf.size, "in").Wait(p)
		d.EnqueueLaunch(cost, "kern").Wait(p)
		d.EnqueueRead(buf.size, "out").Wait(p)
		buf.Free()
	})
	k.Run(0)

	if d.XferBusy() <= 0 {
		t.Fatalf("XferBusy = %v", d.XferBusy())
	}
	if d.KernelBusy() <= 0 {
		t.Fatalf("KernelBusy = %v", d.KernelBusy())
	}
	from, to, ok := d.firstActive, d.lastActive, d.active
	if !ok || to <= from {
		t.Fatalf("ActiveWindow = [%v, %v] ok=%v", from, to, ok)
	}
	// Sequential write/launch/read: busy time equals the window, so the
	// overlap lower bound must be zero.
	if got := d.OverlapLowerBound(); got != 0 {
		t.Fatalf("sequential run reports overlap %v", got)
	}
	m := trace.NewMetrics()
	m.MergeCounters(rec)
	if got := m.Int("mcl.launches.node0"); got != 1 {
		t.Fatalf("mcl.launches = %d, want 1", got)
	}
	if got := m.Int("mcl.bytes_moved.node0"); got != 8<<20 {
		t.Fatalf("mcl.bytes_moved = %d, want %d", got, 8<<20)
	}
}

func TestOverlapLowerBoundDetectsConcurrency(t *testing.T) {
	k, d, _ := newTestDevice(t, "k20") // dual DMA engines
	cost := device.KernelCost{Flops: 5e10, MemBytes: 1 << 20, ComputeEff: 0.5, BandwidthEff: 0.5}
	// One thread keeps the compute engine busy while another streams data.
	k.Spawn("compute", func(p *simnet.Proc) {
		for i := 0; i < 4; i++ {
			d.EnqueueLaunch(cost, "kern").Wait(p)
		}
	})
	k.Spawn("stream", func(p *simnet.Proc) {
		for i := 0; i < 4; i++ {
			d.EnqueueWrite(64<<20, "chunk").Wait(p)
		}
	})
	k.Run(0)
	if d.OverlapLowerBound() <= 0 {
		t.Fatalf("concurrent transfers+kernels report no overlap (kernelBusy=%v xferBusy=%v)",
			d.KernelBusy(), d.XferBusy())
	}
}

func TestUnusedDeviceHasNoWindow(t *testing.T) {
	_, d, _ := newTestDevice(t, "k20")
	if d.active {
		t.Fatal("unused device reports an active window")
	}
	if d.OverlapLowerBound() != 0 {
		t.Fatal("unused device reports overlap")
	}
}
