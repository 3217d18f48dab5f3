package ocl

import (
	"testing"
	"time"

	"cashmere/internal/device"
	"cashmere/internal/simnet"
)

// TestEnqueueCompletesWithoutProcess: an enqueued operation completes in
// virtual time through the callback heap alone — no process is parked for
// its duration, and Done flips exactly at the modeled completion time.
func TestEnqueueCompletesWithoutProcess(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("k20")
	d := NewDevice(k, spec, 0, 0, nil)
	ev := d.EnqueueWrite(600_000_000, "") // 100ms wire + 10us latency
	if ev.Done() {
		t.Fatal("event done before the sim ran")
	}
	end := k.Run(0)
	want := simnet.Time(100*time.Millisecond + 10*time.Microsecond)
	if end != want {
		t.Fatalf("sim ended at %v, want %v", end, want)
	}
	if !ev.Done() {
		t.Fatal("event not done after completion")
	}
	if st := k.Stats(); st.Callbacks != 1 {
		t.Fatalf("Callbacks = %d, want 1 (completion must not park a proc)", st.Callbacks)
	}
	if d.BytesMoved() != 600_000_000 {
		t.Fatalf("BytesMoved = %d", d.BytesMoved())
	}
}

// TestEventDependencyChain: write -> launch -> read across three queues. Each
// stage starts exactly when its dependency completes.
func TestEventDependencyChain(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("k20") // dual DMA: read uses its own queue
	d := NewDevice(k, spec, 0, 0, nil)
	cost := device.KernelCost{Flops: 3524e9 / 10, MemBytes: 1, ComputeEff: 1, BandwidthEff: 1}
	const n = 600_000_000
	w := d.EnqueueWrite(n, "")
	l := d.EnqueueLaunch(cost, "", w)
	r := d.EnqueueRead(n, "", l)
	end := k.Run(0)
	want := simnet.Time(2*spec.TransferTime(n) + spec.KernelTime(cost))
	if end != want {
		t.Fatalf("chain ended at %v, want %v", end, want)
	}
	if !w.Done() || !l.Done() || !r.Done() {
		t.Fatal("chain events not all done")
	}
}

// TestServiceTimeMatchesChain: device.Spec.ServiceTime is what one
// write→launch→read chain takes on a fresh device at nominal speed, the
// simulation the auto-tuner used to run per candidate before it priced
// requests with ServiceTime. Every catalog device, compute- and
// bandwidth-bound costs from tiny to seconds long, and byte counts from 0
// (which still pays the PCIe latency) up.
func TestServiceTimeMatchesChain(t *testing.T) {
	costs := []device.KernelCost{
		{Flops: 0, MemBytes: 0, ComputeEff: 1, BandwidthEff: 1},
		{Flops: 1, MemBytes: 1, ComputeEff: 0.3, BandwidthEff: 0.7},
		{Flops: 3.7e9, MemBytes: 1e6, ComputeEff: 0.55, BandwidthEff: 0.8},
		{Flops: 1e6, MemBytes: 7.3e9, ComputeEff: 0.9, BandwidthEff: 0.13},
		{Flops: 2.1e12, MemBytes: 3.3e11, ComputeEff: 0.0625, BandwidthEff: 0.45},
	}
	sizes := [][2]int64{{0, 0}, {0, 4}, {1, 0}, {4093, 65536}, {1 << 20, 3 << 20}, {600_000_001, 12_345_679}}
	for name, spec := range device.Catalog() {
		for _, cost := range costs {
			for _, sz := range sizes {
				in, out := sz[0], sz[1]
				k := simnet.NewKernel(1)
				d := NewDevice(k, spec, 0, 0, nil)
				var got simnet.Time
				k.Spawn("chain", func(p *simnet.Proc) {
					w := d.EnqueueWrite(in, "in")
					l := d.EnqueueLaunch(cost, "kernel", w)
					d.EnqueueRead(out, "out", l).Wait(p)
					got = k.Now()
				})
				k.Run(0)
				if want := spec.ServiceTime(cost, in, out); got != simnet.Time(want) {
					t.Errorf("%s cost %+v, %d/%d bytes: chain took %d ns, ServiceTime %d ns", name, cost, in, out, got, want.Nanoseconds())
				}
			}
		}
	}
}

// TestCrossQueuePipelining: two write->launch->read iterations with deps
// only inside each iteration. The second write rides the H2D queue behind
// the first, overlapping the first kernel — the Sec. III-B shape.
func TestCrossQueuePipelining(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("k20")
	d := NewDevice(k, spec, 0, 0, nil)
	cost := device.KernelCost{Flops: 3524e9 / 10, MemBytes: 1, ComputeEff: 1, BandwidthEff: 1}
	const n = 600_000_000
	for i := 0; i < 2; i++ {
		w := d.EnqueueWrite(n, "")
		l := d.EnqueueLaunch(cost, "", w)
		d.EnqueueRead(n, "", l)
	}
	end := k.Run(0)
	xfer := simnet.Time(spec.TransferTime(n))
	kern := simnet.Time(spec.KernelTime(cost))
	serial := 2 * (2*xfer + kern)
	// Critical path: w1, w2 back to back, then k2, then r2.
	want := 2*xfer + kern + xfer
	if end != want {
		t.Fatalf("pipelined end = %v, want %v", end, want)
	}
	if end >= serial {
		t.Fatalf("no pipelining: end %v >= serial %v", end, serial)
	}
	if d.OverlapLowerBound() <= 0 {
		t.Fatal("pipelined iterations report no overlap")
	}
}

// TestInOrderQueueSerializes: two ops on the same queue never overlap even
// without explicit dependencies.
func TestInOrderQueueSerializes(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("k20")
	d := NewDevice(k, spec, 0, 0, nil)
	const n = 600_000_000
	d.EnqueueWrite(n, "")
	ev := d.EnqueueWrite(n, "")
	end := k.Run(0)
	if want := simnet.Time(2 * spec.TransferTime(n)); end != want {
		t.Fatalf("in-order queue: end = %v, want %v", end, want)
	}
	if !ev.Done() {
		t.Fatal("second op not done")
	}
}

// TestStaleEventHandleStaysDone: after an op completes and its slot is
// recycled for a new enqueue, old Event handles must still read as done.
func TestStaleEventHandleStaysDone(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("k20")
	d := NewDevice(k, spec, 0, 0, nil)
	first := d.EnqueueWrite(1000, "")
	k.Run(0)
	if !first.Done() {
		t.Fatal("first event not done")
	}
	second := d.EnqueueWrite(1000, "") // recycles the pooled op
	if first.op != second.op {
		t.Fatal("op not recycled (pool broken); test premise invalid")
	}
	if first.Done() != true {
		t.Fatal("stale handle reports not-done after recycle")
	}
	if second.Done() {
		t.Fatal("fresh event born done")
	}
	k.Run(0)
	if !second.Done() {
		t.Fatal("second event not done")
	}
}

// TestZeroEventIsDone: the zero Event acts as an already-complete
// dependency and a no-op Wait.
func TestZeroEventIsDone(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("k20")
	d := NewDevice(k, spec, 0, 0, nil)
	var zero Event
	if !zero.Done() {
		t.Fatal("zero event not done")
	}
	ev := d.EnqueueLaunch(device.KernelCost{Flops: 1, MemBytes: 1, ComputeEff: 1, BandwidthEff: 1}, "", zero)
	var woke simnet.Time
	k.Spawn("w", func(p *simnet.Proc) {
		zero.Wait(p) // must not yield
		ev.Wait(p)
		woke = p.Now()
	})
	end := k.Run(0)
	if woke != end {
		t.Fatalf("waiter woke at %v, sim ended %v", woke, end)
	}
}

// TestEventWaitManyWaiters: several processes block on one event; all wake
// at its completion time.
func TestEventWaitManyWaiters(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("k20")
	d := NewDevice(k, spec, 0, 0, nil)
	ev := d.EnqueueWrite(600_000_000, "")
	want := simnet.Time(100*time.Millisecond + 10*time.Microsecond)
	var woke [3]simnet.Time
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("w", func(p *simnet.Proc) {
			ev.Wait(p)
			woke[i] = p.Now()
		})
	}
	k.Run(0)
	for i, w := range woke {
		if w != want {
			t.Fatalf("waiter %d woke at %v, want %v", i, w, want)
		}
	}
}

// TestDependencyAcrossDevices: events from one device gate enqueues on
// another (the runtime uses this for nothing yet, but cl_event semantics
// are device-agnostic and the hook mechanism must not assume same-device).
func TestDependencyAcrossDevices(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("k20")
	a := NewDevice(k, spec, 0, 0, nil)
	b := NewDevice(k, spec, 0, 1, nil)
	const n = 600_000_000
	wa := a.EnqueueWrite(n, "")
	wb := b.EnqueueWrite(n, "", wa)
	end := k.Run(0)
	if want := simnet.Time(2 * spec.TransferTime(n)); end != want {
		t.Fatalf("cross-device dep: end = %v, want %v", end, want)
	}
	if !wa.Done() || !wb.Done() {
		t.Fatal("events not done")
	}
}

// BenchmarkLaunchPath pins the zero-allocation contract of the enqueue path
// with tracing off: one write->launch->read chain plus the blocking wait,
// per iteration. Op pools, waiter lists and the event heap are warmed before
// the timer starts; after that the path must not allocate or build strings.
func BenchmarkLaunchPath(b *testing.B) {
	k := simnet.NewKernel(1)
	spec, err := device.Lookup("k20")
	if err != nil {
		b.Fatal(err)
	}
	d := NewDevice(k, spec, 0, 0, nil)
	cost := device.KernelCost{Flops: 1e6, MemBytes: 4096, ComputeEff: 1, BandwidthEff: 1}
	drive := func(n int) {
		k.Spawn("driver", func(p *simnet.Proc) {
			for i := 0; i < n; i++ {
				w := d.EnqueueWrite(4096, "")
				l := d.EnqueueLaunch(cost, "", w)
				d.EnqueueRead(4096, "", l).Wait(p)
			}
		})
		k.Run(0)
	}
	drive(64) // warm pools and heap capacity outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	drive(b.N)
}
