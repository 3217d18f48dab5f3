package ocl

import (
	"testing"
	"time"

	"cashmere/internal/device"
	"cashmere/internal/simnet"
)

// TestSlowdownStretchesLaunchAndTransfer checks the straggler hook: a
// slowdown factor multiplies both kernel time and transfer time, and
// resetting it restores nominal speed.
func TestSlowdownStretchesLaunchAndTransfer(t *testing.T) {
	k, d, _ := newTestDevice(t, "gtx480")
	cost := device.KernelCost{Flops: 1345e9 / 1000, MemBytes: 1, ComputeEff: 1, BandwidthEff: 1} // 1ms nominal
	nominal := d.Spec().KernelTime(cost)

	var fast, slow, recovered time.Duration
	k.Spawn("launch", func(p *simnet.Proc) {
		launch := func() time.Duration {
			start := p.Now()
			d.EnqueueLaunch(cost, "k").Wait(p)
			return time.Duration(p.Now() - start)
		}
		fast = launch()
		d.SetSlowdown(4)
		slow = launch()
		d.SetSlowdown(1)
		recovered = launch()
	})
	k.Run(0)

	if fast != nominal {
		t.Fatalf("nominal launch %v, want %v", fast, nominal)
	}
	if slow != 4*nominal {
		t.Fatalf("4x-slowed launch %v, want %v", slow, 4*nominal)
	}
	if recovered != nominal {
		t.Fatalf("launch after recovery %v, want %v", recovered, nominal)
	}
}

func TestSlowdownStretchesTransfers(t *testing.T) {
	k, d, _ := newTestDevice(t, "k20") // 6 GB/s, 10us latency
	b := mustReserve(t, d, 6_000_000)  // 1ms of wire nominal
	var first, second simnet.Time
	k.Spawn("xfer", func(p *simnet.Proc) {
		d.EnqueueWrite(b.Size(), "in").Wait(p)
		first = p.Now()
		d.SetSlowdown(3)
		d.EnqueueWrite(b.Size(), "in").Wait(p)
		second = p.Now()
	})
	k.Run(0)
	nominal := simnet.Duration(first)
	stretched := simnet.Duration(second - first)
	if stretched != 3*nominal {
		t.Fatalf("3x-slowed transfer took %v, want %v", stretched, 3*nominal)
	}
}

func TestSlowdownClampsBelowOne(t *testing.T) {
	_, d, _ := newTestDevice(t, "gtx480")
	d.SetSlowdown(0.25)
	if got := d.Slowdown(); got != 1 {
		t.Fatalf("slowdown %v after setting 0.25, want clamp to 1 (no speedups)", got)
	}
	d.SetSlowdown(2.5)
	if got := d.Slowdown(); got != 2.5 {
		t.Fatalf("slowdown %v, want 2.5", got)
	}
}
