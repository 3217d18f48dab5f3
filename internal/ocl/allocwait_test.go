package ocl

import (
	"testing"
	"time"

	"cashmere/internal/device"
	"cashmere/internal/simnet"
)

// TestAllocBlockingWaitsForFree: a coroutine allocating while memory is
// short waits, through AllocStep inside StepUntil, until a Free makes room,
// and is woken by that Free.
func TestAllocBlockingWaitsForFree(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("gtx480") // 1.5 GB
	d := NewDevice(k, spec, 0, 0, nil)
	const big = 1 << 30
	var acquired simnet.Time
	k.Spawn("holder", func(p *simnet.Proc) {
		var buf Buffer
		if err := alloc(p, d, &buf, big); err != nil {
			t.Error(err)
			return
		}
		p.Hold(10 * time.Millisecond)
		buf.Free()
	})
	k.Spawn("waiter", func(p *simnet.Proc) {
		p.Hold(time.Millisecond) // let the holder run first
		var buf Buffer
		if err := alloc(p, d, &buf, big); err != nil {
			t.Error(err)
			return
		}
		acquired = p.Now()
		buf.Free()
	})
	k.Run(0)
	if acquired != simnet.Time(10*time.Millisecond) {
		t.Fatalf("waiter acquired at %v, want 10ms (event-driven wake)", acquired)
	}
}

// TestAllocBlockingImpossibleRequestFails: a request larger than the
// device fails at once instead of waiting.
func TestAllocBlockingImpossibleRequestFails(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("gtx480")
	d := NewDevice(k, spec, 0, 0, nil)
	var err error
	k.Spawn("w", func(p *simnet.Proc) {
		var buf Buffer
		err = alloc(p, d, &buf, spec.GlobalMem+1)
	})
	k.Run(0)
	if err == nil {
		t.Fatal("impossible request did not fail")
	}
}

// TestAllocBlockingManyWaiters: waiting allocations that fit one at a time
// are served one after another.
func TestAllocBlockingManyWaiters(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("gtx480")
	d := NewDevice(k, spec, 0, 0, nil)
	const chunk = 1 << 30 // only one fits at a time
	var finished int
	for i := 0; i < 4; i++ {
		k.Spawn("u", func(p *simnet.Proc) {
			var buf Buffer
			if err := alloc(p, d, &buf, chunk); err != nil {
				t.Error(err)
				return
			}
			p.Hold(5 * time.Millisecond)
			buf.Free()
			finished++
		})
	}
	end := k.Run(0)
	if finished != 4 {
		t.Fatalf("finished = %d", finished)
	}
	if end != simnet.Time(20*time.Millisecond) {
		t.Fatalf("4 serialized holders ended at %v, want 20ms", end)
	}
	if d.MemUsed() != 0 {
		t.Fatalf("leaked %d bytes", d.MemUsed())
	}
}
