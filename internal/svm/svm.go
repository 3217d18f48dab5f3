// Package svm is a simulated shared-virtual-memory layer over the ocl device
// runtime: the interchangeable alternative to Cashmere's explicit-copy
// transport (ROADMAP item 4, reproducing the tradeoff of "Evaluating Cache
// Coherent Shared Virtual Memory for Heterogeneous Multicore Chips").
//
// A Space per node manages Buffers — shared regions divided into fixed-size
// pages — with per-page ownership and residency state across the node's
// locations (the host plus every device). Kernels declare Read/Write access;
// Acquire services the faults the access incurs by enqueuing demand page
// migrations on the same H2D/D2H command queues every explicit transfer
// uses, so DMA contention, single-copy-engine head-of-line blocking and
// SetSlowdown stragglers bite exactly as they do for bulk copies. Fault
// service is billed with the latency-dominated PagedTransferTime round-trip
// model, not the bandwidth-only bulk model.
//
// Two coherence protocols are selectable per Space:
//
//   - WriteInvalidate: per-page sharers list. Read faults add the reader to
//     the sharers; write faults make the writer the exclusive owner and bill
//     one invalidation message per displaced sharer. Fine-grained sharing is
//     cheap, write ping-pong is paid per page.
//   - RegionOwnership: one exclusive owner per region. The first access from
//     any other location hands the whole region over as a single bulk
//     transfer (one revocation message). Bulk streaming amortizes well,
//     read-sharing ping-pongs the entire region.
//
// A Mode of Write (without Read) declares that the access overwrites its
// ranges completely, so no stale data is fetched — only ownership moves.
// ReadWrite fetches before modifying.
//
// Buffers extend across nodes through the network: a Fetch through a Space
// the buffer is not homed on bills a whole-payload fetch (and, for writes,
// a writeback) over the fabric's link model, and a Stage then moves the
// pages into the accessing device over PCIe. Remote copies are not cached between
// launches and the home state is never mutated remotely, which keeps every
// counter trajectory-determined at any partition layout; callers follow the
// single-writer-per-launch discipline Satin's owner-compute model already
// implies.
//
// State transitions happen at enqueue time on the accessing node's own
// simulation kernel. Device-memory occupancy of resident pages is not
// reserved against the allocator (SVM working sets are assumed to fit;
// eviction is future headroom). All counters are trajectory-determined:
// CollectMetrics dumps containing them are byte-identical at any
// -partitions count.
package svm

import (
	"fmt"
	"math/bits"
	"time"

	"cashmere/internal/ocl"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// Mode declares how a kernel accesses a buffer.
type Mode uint8

// Access modes. Write alone promises a complete overwrite of the accessed
// ranges (no fetch of stale data); ReadWrite is read-modify-write.
const (
	Read      Mode = 1 << iota // consume current contents
	Write                      // overwrite completely
	ReadWrite = Read | Write
)

// Protocol selects the coherence protocol of a Space.
type Protocol uint8

// Coherence protocols.
const (
	// WriteInvalidate keeps a per-page sharers list; writers invalidate
	// every other sharer (billed as one message each).
	WriteInvalidate Protocol = iota
	// RegionOwnership keeps one exclusive owner per region; any access from
	// another location hands the whole region over in one bulk transfer.
	RegionOwnership
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == RegionOwnership {
		return "region-ownership"
	}
	return "write-invalidate"
}

// Range is a half-open byte range [Off, Off+Len) of a buffer. Access ranges
// must be ascending and non-overlapping.
type Range struct {
	Off, Len int64
}

// MaxDevices bounds the devices of one Space: locations (host + devices)
// are tracked in a 32-bit sharers mask.
const MaxDevices = 31

// maxLocations = host + MaxDevices.
const maxLocations = MaxDevices + 1

// hostLoc is the location index of the node's host memory.
const hostLoc = 0

// DefaultPageSize is the page granularity when Config.PageSize is zero.
const DefaultPageSize = 64 << 10

// defaultInvalidateTime is the per-sharer invalidation-message cost when
// Config.InvalidateTime is zero: a doorbell write plus acknowledgment over
// PCIe, well under a page migration.
const defaultInvalidateTime = 3 * time.Microsecond

// Config tunes a Space.
type Config struct {
	// PageSize is the migration granularity in bytes (default 64 KiB).
	PageSize int64
	// Protocol selects the coherence protocol (default WriteInvalidate).
	Protocol Protocol
	// InvalidateTime is the modeled cost of one invalidation (or ownership
	// revocation) message, billed on the faulting process.
	InvalidateTime simnet.Duration
}

// Counters are the Space's trajectory-determined statistics, summed into
// CollectMetrics as svm.*.
type Counters struct {
	Faults        int64 // pages (or regions) that missed and were serviced
	Hits          int64 // page accesses satisfied by resident state
	PagesMigrated int64 // pages moved between locations
	Invalidations int64 // invalidation / revocation messages sent
	BytesMoved    int64 // payload bytes moved, counted once per hop
	RemoteFetches int64 // accesses serviced over the network fabric
	RemoteBytes   int64 // payload bytes over the fabric
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Faults += o.Faults
	c.Hits += o.Hits
	c.PagesMigrated += o.PagesMigrated
	c.Invalidations += o.Invalidations
	c.BytesMoved += o.BytesMoved
	c.RemoteFetches += o.RemoteFetches
	c.RemoteBytes += o.RemoteBytes
}

// Space is one node's shared-virtual-memory manager.
type Space struct {
	k    *simnet.Kernel
	node int
	devs []*ocl.Device
	cfg  Config
	rec  *trace.Recorder

	// netFetch models moving n payload bytes over the cluster fabric for
	// remote (cross-node) accesses; nil makes remote access free (tests).
	netFetch func(int64) simnet.Duration

	c Counters
}

// NewSpace builds the SVM manager of one node. rec may be nil (no fault
// spans); netFetch may be nil (no cross-node billing).
func NewSpace(k *simnet.Kernel, node int, devs []*ocl.Device, cfg Config, rec *trace.Recorder, netFetch func(int64) simnet.Duration) *Space {
	if len(devs) > MaxDevices {
		panic(fmt.Sprintf("svm: %d devices exceed the %d-location sharers mask", len(devs), maxLocations))
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.InvalidateTime <= 0 {
		cfg.InvalidateTime = defaultInvalidateTime
	}
	return &Space{k: k, node: node, devs: devs, cfg: cfg, rec: rec, netFetch: netFetch}
}

// PageSize reports the migration granularity.
func (s *Space) PageSize() int64 { return s.cfg.PageSize }

// Protocol reports the coherence protocol.
func (s *Space) Protocol() Protocol { return s.cfg.Protocol }

// Counters returns the Space's statistics.
func (s *Space) Counters() Counters { return s.c }

// page is the coherence state of one page under write-invalidate.
type page struct {
	owner   uint8  // location holding the authoritative copy
	sharers uint32 // bit per location with a valid copy (owner included)
}

// Buffer is one shared region, homed on the Space that created it.
type Buffer struct {
	sp     *Space
	name   string
	size   int64
	npages int
	pages  []page // per-page state (write-invalidate only)
	owner  uint8  // region owner (region-ownership only)
}

// NewBuffer allocates a shared region of the given size, initially owned by
// the host (whose copy is the authoritative one until a device writes).
func (s *Space) NewBuffer(name string, size int64) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("svm: buffer %q needs a positive size, got %d", name, size)
	}
	np := int((size + s.cfg.PageSize - 1) / s.cfg.PageSize)
	b := &Buffer{sp: s, name: name, size: size, npages: np, owner: hostLoc}
	if s.cfg.Protocol == WriteInvalidate {
		b.pages = make([]page, np)
		for i := range b.pages {
			b.pages[i] = page{owner: hostLoc, sharers: 1 << hostLoc}
		}
	}
	return b, nil
}

// Size returns the region size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Pages returns the region's page count.
func (b *Buffer) Pages() int { return b.npages }

// Space returns the Space the buffer is homed on.
func (b *Buffer) Space() *Space { return b.sp }

// SyncHost makes the host copy current: a blocking whole-region read access
// at the host location. Pages dirty on a device migrate back over the D2H
// queues; everything already valid on the host costs nothing.
func (b *Buffer) SyncHost(p *simnet.Proc) {
	b.sp.acquireAtHost(p, b, Read, nil)
}

// HostWrite declares that the host wrote fresh contents into the given
// ranges (the whole region when none are given): a blocking write access at
// the host location. Device copies of the ranges are invalidated (or, under
// region-ownership, the region is repossessed); since a host write
// overwrites completely, no stale device data moves.
func (b *Buffer) HostWrite(p *simnet.Proc, ranges ...Range) {
	b.sp.acquireAtHost(p, b, Write, ranges)
}

// Check reports an error unless every range lies inside b.
func (b *Buffer) Check(ranges []Range) error {
	for _, r := range ranges {
		if r.Off < 0 || r.Len < 0 || r.Len > b.size-r.Off {
			return fmt.Errorf("svm: range [%d,+%d) outside buffer %q of %d bytes", r.Off, r.Len, b.name, b.size)
		}
	}
	return nil
}

// Acquire services every fault an access of b (mode over ranges; all of b
// when ranges is empty) incurs on device dev of this Space's node, enqueuing
// demand page migrations on the device command queues, and returns the event
// the kernel launch must depend on — the zero (complete) Event when
// everything was already resident — with the time the accessing process is
// held for invalidation messages, negative when none. The caller holds for
// it. Must run on the accessing node's own simulation kernel; a buffer
// homed on another node's Space is accessed with Fetch and Stage instead.
func (s *Space) Acquire(b *Buffer, dev int, mode Mode, ranges []Range) (ocl.Event, simnet.Duration) {
	if mode&ReadWrite == 0 {
		panic("svm: access needs a Read and/or Write mode")
	}
	if b.sp != s {
		panic(fmt.Sprintf("svm: Acquire of buffer %q homed on node %d through node %d; use Fetch and Stage", b.name, b.sp.node, s.node))
	}
	loc := uint8(dev + 1)
	if s.cfg.Protocol == RegionOwnership {
		return s.acquireRO(b, loc, mode)
	}
	var last [maxLocations]ocl.Event
	hold := s.acquireWI(b, loc, mode, ranges, &last)
	return last[loc], hold
}

// acquireAtHost is the host-location access behind SyncHost and HostWrite:
// it blocks p until every migration it caused has completed.
func (s *Space) acquireAtHost(p *simnet.Proc, b *Buffer, mode Mode, ranges []Range) {
	var last [maxLocations]ocl.Event
	var hold simnet.Duration
	if s.cfg.Protocol == RegionOwnership {
		last[1], hold = s.acquireRO(b, hostLoc, mode)
	} else {
		hold = s.acquireWI(b, hostLoc, mode, ranges, &last)
	}
	if hold >= 0 {
		p.Hold(hold)
	}
	for i := 1; i < maxLocations; i++ {
		last[i].Wait(p)
	}
}

// batch is a run of consecutive faulting pages with one source location,
// flushed as a single paged enqueue.
type batch struct {
	src   uint8
	start int
	n     int
	bytes int64
}

// acquireWI walks the accessed pages under write-invalidate, updating
// coherence state, batching consecutive same-source faults into paged
// enqueues recorded in last[...] (indexed by location; for a device target
// the target's slot is the event to gate the kernel on), and returns the
// hold of its invalidation messages (negative when it sends none). The
// all-resident path touches no queue, builds no string and allocates
// nothing.
func (s *Space) acquireWI(b *Buffer, loc uint8, mode Mode, ranges []Range, last *[maxLocations]ocl.Event) simnet.Duration {
	bit := uint32(1) << loc
	ps := s.cfg.PageSize
	fetch := mode&Read != 0 // Write alone overwrites: nothing to fetch
	var start simnet.Time
	var svc simnet.Duration
	tracing := s.rec != nil
	if tracing {
		start = s.k.Now()
	}

	var bt batch
	var faults, invs int64
	nr := len(ranges)
	for ri := 0; ri == 0 || ri < nr; ri++ {
		off, ln := int64(0), b.size
		if nr > 0 {
			off, ln = ranges[ri].Off, ranges[ri].Len
			if err := b.Check(ranges[ri : ri+1]); err != nil {
				panic(err)
			}
		}
		pg := int(off / ps)
		end := int((off + ln + ps - 1) / ps)
		for ; pg < end; pg++ {
			st := &b.pages[pg]
			if mode&Write == 0 {
				if st.sharers&bit != 0 {
					s.c.Hits++
					continue
				}
			} else if st.owner == loc && st.sharers == bit {
				s.c.Hits++
				continue
			}
			faults++
			src := st.owner
			needData := fetch && st.sharers&bit == 0
			if mode&Write != 0 {
				invs += int64(bits.OnesCount32(st.sharers &^ bit))
				st.owner = loc
				st.sharers = bit
			} else {
				st.sharers |= bit
			}
			if !needData {
				continue
			}
			if bt.n > 0 && (bt.src != src || bt.start+bt.n != pg) {
				svc += s.flushWI(b, loc, &bt, last)
			}
			if bt.n == 0 {
				bt.src = src
				bt.start = pg
			}
			bt.n++
			pb := ps
			if rem := b.size - int64(pg)*ps; rem < pb {
				pb = rem
			}
			bt.bytes += pb
		}
	}
	if bt.n > 0 {
		svc += s.flushWI(b, loc, &bt, last)
	}
	s.c.Faults += faults
	hold := simnet.Duration(-1)
	if invs > 0 {
		s.c.Invalidations += invs
		hold = time.Duration(invs) * s.cfg.InvalidateTime
	}
	if tracing && faults > 0 {
		// The span covers the modeled service time of the migrations this
		// access caused (queueing excluded; the per-transfer spans on the
		// device DMA lanes carry the queued view).
		s.rec.Add(trace.Span{
			Node: s.node, Queue: "svm", Kind: trace.KindFault, Label: b.name,
			Start: start, End: start + simnet.Time(svc) + simnet.Time(time.Duration(invs)*s.cfg.InvalidateTime),
		})
	}
	return hold
}

// flushWI enqueues one batch of consecutive pages migrating from bt.src to
// loc and returns its modeled service duration. Migrations between two
// devices stage through the host: a D2H read on the source chained into an
// H2D write on the target. last tracks the newest event per location so the
// caller can gate on queue tails.
func (s *Space) flushWI(b *Buffer, loc uint8, bt *batch, last *[maxLocations]ocl.Event) simnet.Duration {
	ps := s.cfg.PageSize
	var label string
	if s.rec != nil {
		label = "svm.fault:" + b.name
	}
	var svc simnet.Duration
	switch {
	case loc != hostLoc && bt.src == hostLoc:
		d := s.devs[loc-1]
		last[loc] = d.EnqueuePagedWrite(bt.bytes, ps, label)
		svc = d.PagedTransferTime(bt.bytes, ps)
	case loc != hostLoc: // device-to-device, staged through the host
		srcDev, dst := s.devs[bt.src-1], s.devs[loc-1]
		rd := srcDev.EnqueuePagedRead(bt.bytes, ps, label)
		last[bt.src] = rd
		last[loc] = dst.EnqueuePagedWrite(bt.bytes, ps, label, rd)
		svc = srcDev.PagedTransferTime(bt.bytes, ps) + dst.PagedTransferTime(bt.bytes, ps)
		s.c.BytesMoved += bt.bytes // second hop
	default: // target is the host; source must be a device
		d := s.devs[bt.src-1]
		last[bt.src] = d.EnqueuePagedRead(bt.bytes, ps, label)
		svc = d.PagedTransferTime(bt.bytes, ps)
	}
	s.c.PagesMigrated += int64(bt.n)
	s.c.BytesMoved += bt.bytes
	bt.n = 0
	bt.bytes = 0
	return svc
}

// acquireRO services an access under region-ownership: any access from a
// location other than the owner repossesses the whole region with one
// revocation message, whose hold it returns, and (unless the access
// overwrites completely) one bulk transfer of the region.
func (s *Space) acquireRO(b *Buffer, loc uint8, mode Mode) (ocl.Event, simnet.Duration) {
	if b.owner == loc {
		s.c.Hits++
		return ocl.Event{}, -1
	}
	src := b.owner
	b.owner = loc
	s.c.Faults++
	s.c.Invalidations++ // the revocation message to the previous owner
	var start simnet.Time
	tracing := s.rec != nil
	if tracing {
		start = s.k.Now()
	}
	var label string
	if tracing {
		label = "svm.handoff:" + b.name
	}
	var ev ocl.Event
	var svc simnet.Duration
	if mode&Read != 0 { // a pure overwrite moves no stale data
		s.c.PagesMigrated += int64(b.npages)
		switch {
		case loc != hostLoc && src == hostLoc:
			d := s.devs[loc-1]
			ev = d.EnqueueWrite(b.size, label)
			svc = d.PagedTransferTime(b.size, b.size)
			s.c.BytesMoved += b.size
		case loc != hostLoc: // device to device through the host
			sd, dd := s.devs[src-1], s.devs[loc-1]
			rd := sd.EnqueueRead(b.size, label)
			ev = dd.EnqueueWrite(b.size, label, rd)
			svc = sd.PagedTransferTime(b.size, b.size) + dd.PagedTransferTime(b.size, b.size)
			s.c.BytesMoved += 2 * b.size
		default:
			d := s.devs[src-1]
			ev = d.EnqueueRead(b.size, label)
			svc = d.PagedTransferTime(b.size, b.size)
			s.c.BytesMoved += b.size
		}
	}
	if tracing {
		s.rec.Add(trace.Span{
			Node: s.node, Queue: "svm", Kind: trace.KindFault, Label: b.name,
			Start: start, End: start + simnet.Time(svc+s.cfg.InvalidateTime),
		})
	}
	return ev, s.cfg.InvalidateTime
}

// Fetch starts an access of b, homed on another node's Space: it bills
// fetching the payload from (and, for writes, writing it back to) the home
// node over the network fabric and returns that hold, negative without a
// fabric model; the caller holds, then calls Stage. Nothing is cached and
// the home Space is never touched, so both stay trajectory-deterministic.
func (s *Space) Fetch(b *Buffer, mode Mode, ranges []Range) simnet.Duration {
	bytes := b.Bytes(ranges)
	s.c.RemoteFetches++
	if mode&Read != 0 {
		s.c.RemoteBytes += bytes
	}
	if mode&Write != 0 {
		s.c.RemoteBytes += bytes
	}
	if s.netFetch == nil {
		return -1
	}
	var rt simnet.Duration
	if mode&Read != 0 {
		rt += s.netFetch(bytes) // fault report + payload home->here
	} else {
		rt += s.netFetch(1) // ownership request only
	}
	if mode&Write != 0 {
		rt += s.netFetch(bytes) // writeback here->home
	}
	return rt
}

// Stage finishes an access Fetch started, once its hold is over: a read
// stages the fetched payload into device dev as demand-paged PCIe faults,
// and Stage returns the event the kernel launch must depend on (the zero
// Event for a pure overwrite).
func (s *Space) Stage(b *Buffer, dev int, mode Mode, ranges []Range) ocl.Event {
	if mode&Read == 0 {
		return ocl.Event{}
	}
	bytes := b.Bytes(ranges)
	ps := s.cfg.PageSize
	pages := (bytes + ps - 1) / ps
	s.c.Faults += pages
	s.c.PagesMigrated += pages
	s.c.BytesMoved += bytes
	var label string
	if s.rec != nil {
		label = "svm.remote:" + b.name
	}
	return s.devs[dev].EnqueuePagedWrite(bytes, ps, label)
}

// Fault stages n bytes of launch input into device dev (in), or drains n
// bytes of launch output from it, as demand-paged faults — the
// implicit-region path classic InBytes/OutBytes/Resident launches take
// under the SVM transport, billed and counted like any other fault service.
func (s *Space) Fault(dev int, n int64, label string, in bool, deps ...ocl.Event) ocl.Event {
	ps := s.cfg.PageSize
	pages := (n + ps - 1) / ps
	s.c.Faults += pages
	s.c.PagesMigrated += pages
	s.c.BytesMoved += n
	d := s.devs[dev]
	if s.rec != nil {
		now := s.k.Now()
		s.rec.Add(trace.Span{
			Node: s.node, Queue: "svm", Kind: trace.KindFault, Label: label,
			Start: now, End: now + simnet.Time(d.PagedTransferTime(n, ps)),
		})
	}
	if in {
		return d.EnqueuePagedWrite(n, ps, label, deps...)
	}
	return d.EnqueuePagedRead(n, ps, label, deps...)
}

// Bytes sums the bytes ranges cover in b (all of b when ranges is empty).
func (b *Buffer) Bytes(ranges []Range) int64 {
	if len(ranges) == 0 {
		return b.size
	}
	var n int64
	for _, r := range ranges {
		n += r.Len
	}
	return n
}
