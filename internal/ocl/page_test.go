package ocl

import (
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/simnet"
)

// TestPageTransferTimeStretchedBySlowdown: the exported fault-cost helper
// must include the straggler degradation factor, like every other modeled
// duration of the device, for a single page as for a run of pages.
func TestPageTransferTimeStretchedBySlowdown(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, err := device.Lookup("k20")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDevice(k, spec, 0, 0, nil)
	const page = 64 << 10
	nominal := d.PagedTransferTime(page, page)
	if nominal != spec.PagedTransferTime(page, page) {
		t.Fatalf("nominal fault time %v != spec %v", nominal, spec.PagedTransferTime(page, page))
	}
	d.SetSlowdown(2)
	if got := d.PagedTransferTime(page, page); got != 2*nominal {
		t.Fatalf("slowed fault time %v, want %v", got, 2*nominal)
	}
	if got := d.PagedTransferTime(3*page, page); got != 2*spec.PagedTransferTime(3*page, page) {
		t.Fatalf("slowed paged time %v, want 2x nominal", got)
	}
}

// TestPagedEnqueueOccupiesDMAQueue: a paged write bills its summed per-page
// round trips as one in-order queue occupancy, so a following bulk transfer
// on the same engine is delayed behind the whole fault storm.
func TestPagedEnqueueOccupiesDMAQueue(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, err := device.Lookup("gtx480") // one copy engine: reads share the queue
	if err != nil {
		t.Fatal(err)
	}
	d := NewDevice(k, spec, 0, 0, nil)
	const page, n = int64(64 << 10), int64(16 * 64 << 10)
	w := d.EnqueuePagedWrite(n, page, "")
	r := d.EnqueuePagedRead(page, page, "")
	end := k.Run(0)
	want := simnet.Time(spec.PagedTransferTime(n, page) + spec.PagedTransferTime(page, page))
	if end != want {
		t.Fatalf("end = %v, want serialized fault storm + read = %v", end, want)
	}
	if !w.Done() || !r.Done() {
		t.Fatal("events not complete")
	}
	if d.BytesMoved() != n+page {
		t.Fatalf("bytes moved = %d, want %d", d.BytesMoved(), n+page)
	}
}
