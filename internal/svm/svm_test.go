package svm

import (
	"testing"
	"time"

	"cashmere/internal/device"
	"cashmere/internal/ocl"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// testSpace builds a one-node Space over the named devices and returns it
// with its kernel. drive runs fn as a simulation process to completion and
// returns the final virtual time.
func testSpace(t testing.TB, cfg Config, rec *trace.Recorder, devNames ...string) (*Space, *simnet.Kernel) {
	t.Helper()
	k := simnet.NewKernel(1)
	devs := make([]*ocl.Device, len(devNames))
	for i, n := range devNames {
		spec, err := device.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = ocl.NewDevice(k, spec, 0, i, rec)
	}
	return NewSpace(k, 0, devs, cfg, rec, nil), k
}

func drive(k *simnet.Kernel, fn func(p *simnet.Proc)) simnet.Time {
	k.Spawn("test", fn)
	return k.Run(0)
}

// acquire is Acquire for a coroutine: it takes the access's hold, as a
// launch does, and returns the event the kernel would depend on.
func acquire(p *simnet.Proc, s *Space, b *Buffer, dev int, mode Mode, ranges []Range) ocl.Event {
	ev, hold := s.Acquire(b, dev, mode, ranges)
	if hold >= 0 {
		p.Hold(hold)
	}
	return ev
}

func TestConfigDefaults(t *testing.T) {
	s, _ := testSpace(t, Config{}, nil, "k20")
	if s.PageSize() != DefaultPageSize {
		t.Fatalf("default page size = %d, want %d", s.PageSize(), DefaultPageSize)
	}
	if s.Protocol() != WriteInvalidate {
		t.Fatal("default protocol should be write-invalidate")
	}
	if s.cfg.InvalidateTime != defaultInvalidateTime {
		t.Fatalf("default invalidate time = %v", s.cfg.InvalidateTime)
	}
	if WriteInvalidate.String() != "write-invalidate" || RegionOwnership.String() != "region-ownership" {
		t.Fatal("protocol names wrong")
	}
}

func TestNewBufferRejectsBadSize(t *testing.T) {
	s, _ := testSpace(t, Config{}, nil, "k20")
	if _, err := s.NewBuffer("bad", 0); err == nil {
		t.Fatal("zero-size buffer accepted")
	}
	b, err := s.NewBuffer("odd", DefaultPageSize+1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Pages() != 2 {
		t.Fatalf("pages = %d, want 2 (partial tail page)", b.Pages())
	}
}

// TestWriteInvalidateFaultThenHit: the first read access faults every page
// in over the H2D queue at demand-fault cost; re-acquiring is free.
func TestWriteInvalidateFaultThenHit(t *testing.T) {
	s, k := testSpace(t, Config{}, nil, "k20")
	const n = 4 * DefaultPageSize
	b, _ := s.NewBuffer("a", n)
	end := drive(k, func(p *simnet.Proc) {
		ev := acquire(p, s, b, 0, Read, nil)
		ev.Wait(p)
		// Second acquire: everything resident, zero events, zero time.
		if ev2 := acquire(p, s, b, 0, Read, nil); !ev2.Done() {
			t.Error("re-acquire should return the complete event")
		}
	})
	want := simnet.Time(s.devs[0].PagedTransferTime(n, DefaultPageSize))
	if end != want {
		t.Fatalf("end = %v, want paged fault service %v", end, want)
	}
	c := s.Counters()
	if c.Faults != 4 || c.PagesMigrated != 4 || c.BytesMoved != n || c.Hits != 4 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Invalidations != 0 {
		t.Fatal("read sharing should not invalidate")
	}
}

// TestWriteInvalidatePingPong: alternating writers invalidate each other
// page by page; a pure-Write access moves no stale data but still pays the
// invalidation messages.
func TestWriteInvalidatePingPong(t *testing.T) {
	s, k := testSpace(t, Config{}, nil, "k20", "k20")
	const n = 2 * DefaultPageSize
	b, _ := s.NewBuffer("a", n)
	drive(k, func(p *simnet.Proc) {
		acquire(p, s, b, 0, Write, nil).Wait(p) // dev0 overwrites: no fetch, invalidates host
		acquire(p, s, b, 1, ReadWrite, nil).Wait(p)
		acquire(p, s, b, 0, ReadWrite, nil).Wait(p)
	})
	c := s.Counters()
	// Access 1: 2 faults, 0 bytes (pure overwrite), 2 invalidations (host).
	// Access 2: 2 faults, n bytes dev0->dev1 (2n moved: two hops), 2 invs.
	// Access 3: same back.
	if c.Faults != 6 {
		t.Fatalf("faults = %d, want 6", c.Faults)
	}
	if c.Invalidations != 6 {
		t.Fatalf("invalidations = %d, want 6", c.Invalidations)
	}
	if c.BytesMoved != 4*n {
		t.Fatalf("bytes moved = %d, want %d (two device-device handoffs, two hops each)", c.BytesMoved, 4*n)
	}
	if c.PagesMigrated != 4 {
		t.Fatalf("pages migrated = %d, want 4", c.PagesMigrated)
	}
}

// TestWriteInvalidateRanges: partial-range access faults only the touched
// pages, and a partial write invalidates only those pages for other sharers.
func TestWriteInvalidateRanges(t *testing.T) {
	s, k := testSpace(t, Config{}, nil, "k20")
	const ps = DefaultPageSize
	b, _ := s.NewBuffer("a", 8*ps)
	drive(k, func(p *simnet.Proc) {
		// Touch pages 1 and 5-6 only.
		rs := []Range{{Off: ps, Len: ps}, {Off: 5 * ps, Len: 2 * ps}}
		acquire(p, s, b, 0, Read, rs).Wait(p)
	})
	c := s.Counters()
	if c.Faults != 3 || c.PagesMigrated != 3 || c.BytesMoved != 3*ps {
		t.Fatalf("counters = %+v, want 3 pages faulted", c)
	}
}

func TestAcquireRangePanicsOutsideBuffer(t *testing.T) {
	s, k := testSpace(t, Config{}, nil, "k20")
	b, _ := s.NewBuffer("a", DefaultPageSize)
	drive(k, func(p *simnet.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-bounds range did not panic")
			}
		}()
		acquire(p, s, b, 0, Read, []Range{{Off: 0, Len: 2 * DefaultPageSize}})
	})
}

// TestSyncHostDrainsDirtyPages: after a device write, SyncHost reads the
// dirty pages back over the D2H queue and blocks until done.
func TestSyncHostDrainsDirtyPages(t *testing.T) {
	s, k := testSpace(t, Config{}, nil, "k20")
	const n = 2 * DefaultPageSize
	b, _ := s.NewBuffer("a", n)
	var syncDone simnet.Time
	drive(k, func(p *simnet.Proc) {
		acquire(p, s, b, 0, Write, nil).Wait(p)
		t0 := p.Now()
		b.SyncHost(p)
		syncDone = p.Now() - t0
		b.SyncHost(p) // second sync: host is a sharer, free
	})
	if syncDone < simnet.Time(s.devs[0].PagedTransferTime(n, DefaultPageSize)) {
		t.Fatalf("SyncHost returned after %v, before the D2H fault service", syncDone)
	}
	c := s.Counters()
	if c.BytesMoved != n {
		t.Fatalf("bytes moved = %d, want %d (one D2H drain)", c.BytesMoved, n)
	}
}

// TestHostWriteInvalidatesDeviceCopies: a host overwrite costs only
// invalidation messages; the next device read re-faults.
func TestHostWriteInvalidatesDeviceCopies(t *testing.T) {
	s, k := testSpace(t, Config{}, nil, "k20")
	b, _ := s.NewBuffer("a", DefaultPageSize)
	drive(k, func(p *simnet.Proc) {
		acquire(p, s, b, 0, Read, nil).Wait(p)
		before := s.Counters().BytesMoved
		b.HostWrite(p)
		if s.Counters().BytesMoved != before {
			t.Error("host overwrite moved data")
		}
		acquire(p, s, b, 0, Read, nil).Wait(p) // must re-fault
	})
	c := s.Counters()
	// Initial device read + the host's ownership consolidation (a coherence
	// miss even though no data moves) + the device's re-fault.
	if c.Faults != 3 {
		t.Fatalf("faults = %d, want 3", c.Faults)
	}
	if c.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (the device copy)", c.Invalidations)
	}
}

// TestRegionOwnershipHandoff: under region-ownership any access from a
// non-owner moves the whole region once, regardless of how little is
// touched.
func TestRegionOwnershipHandoff(t *testing.T) {
	s, k := testSpace(t, Config{Protocol: RegionOwnership}, nil, "k20")
	const n = 8 * DefaultPageSize
	b, _ := s.NewBuffer("a", n)
	drive(k, func(p *simnet.Proc) {
		// Touch one page: the whole region still moves.
		acquire(p, s, b, 0, ReadWrite, []Range{{Off: 0, Len: 64}}).Wait(p)
		acquire(p, s, b, 0, Read, nil).Wait(p) // owner hit: free
		b.SyncHost(p)                          // whole region back
	})
	c := s.Counters()
	if c.Faults != 2 || c.Hits != 1 {
		t.Fatalf("counters = %+v, want 2 region faults and 1 hit", c)
	}
	if c.BytesMoved != 2*n {
		t.Fatalf("bytes moved = %d, want %d (whole region each way)", c.BytesMoved, 2*n)
	}
	if c.PagesMigrated != 16 {
		t.Fatalf("pages migrated = %d, want 16", c.PagesMigrated)
	}
	if c.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2 revocation messages", c.Invalidations)
	}
}

// TestFaultServiceSharesDMAQueue: fault traffic and an explicit bulk
// transfer on a single-copy-engine device serialize on the same queue —
// the contention the SVM model must preserve.
func TestFaultServiceSharesDMAQueue(t *testing.T) {
	s, k := testSpace(t, Config{}, nil, "gtx480")
	const n = 4 * DefaultPageSize
	b, _ := s.NewBuffer("a", n)
	d := s.devs[0]
	var faultSvc simnet.Duration
	end := drive(k, func(p *simnet.Proc) {
		acquire(p, s, b, 0, Read, nil)
		faultSvc = d.PagedTransferTime(n, DefaultPageSize)
		d.EnqueueRead(DefaultPageSize, "bulk").Wait(p)
	})
	if end <= simnet.Time(faultSvc) {
		t.Fatalf("end = %v: bulk read did not queue behind the fault storm (faults alone take %v)", end, faultSvc)
	}
}

// TestSlowdownStretchesFaults: a straggler device pays its degradation on
// fault service exactly like on explicit transfers.
func TestSlowdownStretchesFaults(t *testing.T) {
	mk := func(slow float64) simnet.Time {
		s, k := testSpace(t, Config{}, nil, "k20")
		s.devs[0].SetSlowdown(slow)
		b, _ := s.NewBuffer("a", 4*DefaultPageSize)
		return drive(k, func(p *simnet.Proc) {
			acquire(p, s, b, 0, Read, nil).Wait(p)
		})
	}
	if mk(2) != 2*mk(1) {
		t.Fatal("slowdown 2 should double fault service time")
	}
}

// TestFaultSpansRecorded: with tracing on, each faulting access emits one
// KindFault span on the "svm" lane plus the usual transfer spans.
func TestFaultSpansRecorded(t *testing.T) {
	rec := trace.New()
	s, k := testSpace(t, Config{}, rec, "k20")
	b, _ := s.NewBuffer("a", 2*DefaultPageSize)
	drive(k, func(p *simnet.Proc) {
		acquire(p, s, b, 0, Read, nil).Wait(p)
		acquire(p, s, b, 0, Read, nil).Wait(p) // hit: no span
	})
	var faults int
	for _, sp := range rec.Spans() {
		if sp.Kind == trace.KindFault {
			faults++
			if sp.Queue != "svm" || sp.Label != "a" || sp.End <= sp.Start {
				t.Fatalf("bad fault span %+v", sp)
			}
		}
	}
	if faults != 1 {
		t.Fatalf("fault spans = %d, want 1", faults)
	}
}

// TestRemoteAccessBillsNetworkAndStagesPages: an access through a foreign
// Space (Fetch, its hold, then Stage) pays the fabric round trip and stages
// the payload into the device, without mutating the home Space's coherence
// state.
func TestRemoteAccessBillsNetworkAndStagesPages(t *testing.T) {
	k := simnet.NewKernel(1)
	spec, _ := device.Lookup("k20")
	homeDev := ocl.NewDevice(k, spec, 0, 0, nil)
	farDev := ocl.NewDevice(k, spec, 1, 0, nil)
	const linkCost = 100 * time.Microsecond
	netFetch := func(n int64) simnet.Duration { return linkCost }
	home := NewSpace(k, 0, []*ocl.Device{homeDev}, Config{}, nil, netFetch)
	far := NewSpace(k, 1, []*ocl.Device{farDev}, Config{}, nil, netFetch)
	const n = 2 * DefaultPageSize
	b, _ := home.NewBuffer("a", n)
	end := drive(k, func(p *simnet.Proc) {
		p.Hold(far.Fetch(b, ReadWrite, nil))
		far.Stage(b, 0, ReadWrite, nil).Wait(p)
	})
	// Fetch + writeback over the link, then paged staging into the device.
	want := simnet.Time(2*linkCost + farDev.PagedTransferTime(n, DefaultPageSize))
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	fc := far.Counters()
	if fc.RemoteFetches != 1 || fc.RemoteBytes != 2*n {
		t.Fatalf("remote counters = %+v", fc)
	}
	hc := home.Counters()
	if hc != (Counters{}) {
		t.Fatalf("home state mutated by remote access: %+v", hc)
	}
	if b.pages[0].owner != hostLoc {
		t.Fatal("remote access changed home page ownership")
	}
}

// TestCountersAdd: the cluster-level aggregation helper.
func TestCountersAdd(t *testing.T) {
	a := Counters{Faults: 1, Hits: 2, PagesMigrated: 3, Invalidations: 4, BytesMoved: 5, RemoteFetches: 6, RemoteBytes: 7}
	var c Counters
	c.Add(a)
	c.Add(a)
	if c != (Counters{2, 4, 6, 8, 10, 12, 14}) {
		t.Fatalf("Add = %+v", c)
	}
}

func TestAcquireRejectsEmptyMode(t *testing.T) {
	s, k := testSpace(t, Config{}, nil, "k20")
	b, _ := s.NewBuffer("a", DefaultPageSize)
	drive(k, func(p *simnet.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("mode 0 did not panic")
			}
		}()
		acquire(p, s, b, 0, 0, nil)
	})
}

// BenchmarkSVMRefault pins the steady-state re-acquire path (all pages
// resident) at 0 allocs/op: the coherence walk over a fully resident buffer
// must touch no queue, build no label and allocate nothing.
func BenchmarkSVMRefault(b *testing.B) {
	k := simnet.NewKernel(1)
	spec, err := device.Lookup("k20")
	if err != nil {
		b.Fatal(err)
	}
	d := ocl.NewDevice(k, spec, 0, 0, nil)
	s := NewSpace(k, 0, []*ocl.Device{d}, Config{}, nil, nil)
	buf, err := s.NewBuffer("bench", 1<<20) // 16 pages
	if err != nil {
		b.Fatal(err)
	}
	run := func(n int) {
		k.Spawn("driver", func(p *simnet.Proc) {
			for i := 0; i < n; i++ {
				acquire(p, s, buf, 0, ReadWrite, nil).Wait(p)
			}
		})
		k.Run(0)
	}
	run(64) // warm: fault everything in, pool the op structs
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
