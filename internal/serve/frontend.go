package serve

import (
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// Verdict is the admission decision for one arrival.
type Verdict int

// Admission verdicts.
const (
	// Admitted: the request entered its tenant queue.
	Admitted Verdict = iota
	// ShedThrottle: the tenant's token bucket is empty; retry after the
	// returned hint (rate backpressure).
	ShedThrottle
	// ShedQueue: the tenant's bounded queue is full; retry after the
	// returned hint (overload backpressure).
	ShedQueue
)

// Request is one in-flight unit of service. Requests are pooled by the
// frontend: the steady-state admit→dispatch→complete cycle recycles
// records through an intrusive freelist and never allocates.
type Request struct {
	Tenant  int
	Class   int
	Arrive  simnet.Time // admission time
	Issue   simnet.Time // dispatch time (queue wait = Issue - Arrive)
	Retried bool        // this is the re-offer of a shed arrival

	cost float64  // WFQ service cost (CostHint ns)
	next *Request // intrusive FIFO / freelist link
}

// tenantState is the frontend's runtime state for one tenant.
type tenantState struct {
	spec       TenantSpec
	queueLimit int

	// Token bucket (lazy refill on virtual time).
	tokens   float64
	rate     float64 // tokens per ns
	burst    float64
	lastFill simnet.Time

	// Bounded FIFO of admitted requests (intrusive list).
	head, tail *Request
	qlen       int

	// Weighted-fair queueing: finish tag of the last dispatched request
	// and the precomputed head-of-line finish tag (valid while qlen > 0).
	lastFinish float64
	headTag    float64

	// Class picker: cumulative mix weights.
	cum      []int
	totalCum int
	costs    []float64 // per-class WFQ cost, ns
	caps     []int     // per-class batch cap (JobClass.MaxBatch or Config.MaxBatch)

	// Accounting.
	Offered      int64
	Admitted     int64
	ShedThrottle int64
	ShedQueue    int64
	Retries      int64
	Completed    int64
	Errors       int64
	SLOOk        int64
	MaxQueue     int
	Hist         Hist
}

// Frontend is the admission-control and queueing stage between the
// workload generator and the per-node device schedulers. All its methods
// run inside one simulation (simnet serializes processes), so it needs no
// locking; concurrency across dispatchers is concurrency in virtual time.
type Frontend struct {
	cfg     Config
	tenants []tenantState
	rec     *trace.Recorder

	vt       float64 // WFQ virtual time
	queued   int     // requests across all tenant queues
	inflight int     // requests dispatched, not yet completed
	maxDepth int     // high-water mark of queued

	free           *Request // request freelist
	gensLive       int      // arrival generators still running
	pendingRetries int      // shed re-offers scheduled but not yet fired

	// work is where idle dispatchers park; admissions wake them.
	work simnet.WaitList
	// done completes when generators finished and all queues drained.
	done *simnet.Future[struct{}]
	// el is the elastic capacity controller (nil for fixed fleets).
	el *elastic

	// Global accounting.
	Batches     int64
	BatchedReqs int64
	Hist        Hist
}

// NewFrontend builds the frontend for a configuration. rec may be nil
// (tracing off). k may be nil for pure queueing tests and benchmarks; the
// DES glue passes the simulation kernel so completion futures work.
func NewFrontend(k *simnet.Kernel, cfg Config, rec *trace.Recorder) *Frontend {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	f := &Frontend{cfg: cfg, rec: rec}
	if k != nil {
		f.done = simnet.NewFuture[struct{}](k)
	}
	f.tenants = make([]tenantState, len(cfg.Tenants))
	for i, spec := range cfg.Tenants {
		t := &f.tenants[i]
		t.spec = spec
		t.queueLimit = spec.QueueLimit
		if t.queueLimit <= 0 {
			t.queueLimit = DefaultQueueLimit
		}
		t.rate = spec.BucketRatePerSec / 1e9
		t.burst = float64(spec.BucketBurst)
		if t.burst < 1 {
			t.burst = 1
		}
		t.tokens = t.burst
		for _, c := range spec.Mix {
			w := c.Weight
			if w < 1 {
				w = 1
			}
			t.totalCum += w
			t.cum = append(t.cum, t.totalCum)
			cost := float64(c.CostHint)
			if cost <= 0 {
				cost = float64(defaultCostHint)
			}
			t.costs = append(t.costs, cost)
			bc := cfg.MaxBatch
			if c.MaxBatch > 0 {
				bc = c.MaxBatch
			}
			t.caps = append(t.caps, bc)
		}
	}
	return f
}

const (
	defaultRetryAfter = simnet.Duration(1e6)  // 1ms
	defaultCostHint   = simnet.Duration(1e5)  // 100µs
	maxRetryAfter     = simnet.Duration(50e6) // hint cap, 50ms
)

// Tenant returns tenant i's accounting state (read-only use).
func (f *Frontend) Tenant(i int) *tenantState { return &f.tenants[i] }

// Queued reports the total number of requests waiting across tenants.
func (f *Frontend) Queued() int { return f.queued }

// Inflight reports the number of dispatched, uncompleted requests.
func (f *Frontend) Inflight() int { return f.inflight }

// MaxDepth reports the high-water mark of the total queue depth.
func (f *Frontend) MaxDepth() int { return f.maxDepth }

// refill lazily refreshes tenant t's token bucket at time now.
func (t *tenantState) refill(now simnet.Time) {
	if t.rate <= 0 {
		return
	}
	if dt := now - t.lastFill; dt > 0 {
		t.tokens += float64(dt) * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
	}
	t.lastFill = now
}

// weight returns the tenant's WFQ weight (>= 1).
func (t *tenantState) weight() float64 {
	if t.spec.Weight < 1 {
		return 1
	}
	return float64(t.spec.Weight)
}

// alloc takes a request record off the freelist (or allocates one).
func (f *Frontend) alloc() *Request {
	if r := f.free; r != nil {
		f.free = r.next
		*r = Request{}
		return r
	}
	return &Request{}
}

// Release returns a completed request record to the pool.
func (f *Frontend) Release(r *Request) {
	r.next = f.free
	f.free = r
}

// Admit presents one arrival of (tenant, class) at time now. On Admitted
// the returned request is queued; on a shed verdict the request is nil and
// retryAfter carries the backpressure hint a client should wait before
// re-offering.
//
// This is the serving fast path: no allocation, no map access, no label
// formatting (trace counters no-op on a nil recorder).
func (f *Frontend) Admit(now simnet.Time, tenant, class int) (r *Request, v Verdict, retryAfter simnet.Duration) {
	t := &f.tenants[tenant]
	t.Offered++

	if t.rate > 0 {
		t.refill(now)
		if t.tokens < 1 {
			t.ShedThrottle++
			f.rec.CounterAdd(0, "serve.shed_throttle", now, 1)
			wait := simnet.Duration((1 - t.tokens) / t.rate)
			if wait > maxRetryAfter {
				wait = maxRetryAfter
			}
			return nil, ShedThrottle, wait
		}
	}
	if t.qlen >= t.queueLimit {
		t.ShedQueue++
		f.rec.CounterAdd(0, "serve.shed_queue", now, 1)
		hint := f.cfg.RetryAfter
		if f.el != nil {
			// With nodes draining or down the backlog clears more slowly;
			// stretch the hint by the inactive slot fraction so retries do
			// not slam a shrunken fleet.
			hint = f.el.scaleHint(hint)
		}
		return nil, ShedQueue, hint
	}
	if t.rate > 0 {
		t.tokens--
	}

	r = f.alloc()
	r.Tenant = tenant
	r.Class = class
	r.Arrive = now
	r.cost = t.costs[class]

	// FIFO push.
	if t.tail == nil {
		t.head, t.tail = r, r
		// Queue transitioned empty→backlogged: stamp the head's WFQ
		// finish tag (start-time fair queueing: start at max(vt, last
		// finish), finish cost/weight later).
		start := t.lastFinish
		if f.vt > start {
			start = f.vt
		}
		t.headTag = start + r.cost/t.weight()
	} else {
		t.tail.next = r
		t.tail = r
	}
	t.qlen++
	if t.qlen > t.MaxQueue {
		t.MaxQueue = t.qlen
	}
	f.queued++
	if f.queued > f.maxDepth {
		f.maxDepth = f.queued
	}
	t.Admitted++
	f.rec.CounterAdd(0, "serve.admitted", now, 1)
	f.rec.GaugeSet(0, "serve.queue_depth", now, int64(f.queued))
	return r, Admitted, 0
}

// pop removes and returns tenant t's head request. The caller updates WFQ
// tags.
func (t *tenantState) pop() *Request {
	r := t.head
	t.head = r.next
	if t.head == nil {
		t.tail = nil
	}
	r.next = nil
	t.qlen--
	return r
}

// NextBatch pops the next batch to dispatch under weighted-fair queueing:
// the head request of the tenant with the smallest virtual finish tag,
// plus up to MaxBatch-1 consecutive same-class requests of that tenant
// (compatible launches coalesce into one enqueue to amortize H2D setup;
// only classes with a BatchParam coalesce). Popped requests are appended
// to dst (reused across calls by each dispatcher) with Issue stamped.
// Returns dst unchanged when nothing is queued.
func (f *Frontend) NextBatch(now simnet.Time, dst []*Request) []*Request {
	best := -1
	var bestTag float64
	for i := range f.tenants {
		t := &f.tenants[i]
		if t.qlen == 0 {
			continue
		}
		if best == -1 || t.headTag < bestTag {
			best, bestTag = i, t.headTag
		}
	}
	if best == -1 {
		return dst
	}
	t := &f.tenants[best]
	w := t.weight()

	// The WFQ virtual time is the largest start tag ever dispatched; it is
	// consulted only when an idle tenant becomes backlogged (Admit), so a
	// returning tenant cannot claim an ancient tag, while a continuously
	// backlogged one chains finish tags and keeps exactly its weighted
	// share.
	r := t.pop()
	r.Issue = now
	if s := bestTag - r.cost/w; s > f.vt {
		f.vt = s
	}
	t.lastFinish = bestTag
	dst = append(dst, r)

	batchable := t.spec.Mix[r.Class].BatchParam != ""
	for batchable && len(dst) < t.caps[r.Class] && t.qlen > 0 && t.head.Class == r.Class {
		nr := t.pop()
		nr.Issue = now
		if t.lastFinish > f.vt {
			f.vt = t.lastFinish // coalesced request's start tag
		}
		t.lastFinish += nr.cost / w
		dst = append(dst, nr)
	}
	if t.qlen > 0 {
		t.headTag = t.lastFinish + t.head.cost/w
	}

	n := len(dst)
	f.queued -= n
	f.inflight += n
	f.Batches++
	if n > 1 {
		f.BatchedReqs += int64(n)
	}
	f.rec.GaugeSet(0, "serve.queue_depth", now, int64(f.queued))
	return dst
}

// Complete finishes a dispatched request at time now: latency accounting,
// SLO check, and recycling of the record. ok=false counts an execution
// error instead of a completion (the latency histogram only sees
// successes).
func (f *Frontend) Complete(now simnet.Time, r *Request, ok bool) {
	t := &f.tenants[r.Tenant]
	f.inflight--
	if ok {
		lat := int64(now - r.Arrive)
		t.Hist.Observe(lat)
		f.Hist.Observe(lat)
		t.Completed++
		if simnet.Duration(lat) <= f.cfg.SLO {
			t.SLOOk++
		}
		f.rec.CounterAdd(0, "serve.completed", now, 1)
	} else {
		t.Errors++
		f.rec.CounterAdd(0, "serve.errors", now, 1)
	}
	f.Release(r)
}

// Drained reports whether the service is finished: all generators exited,
// no retry is pending, and no request is queued or in flight.
func (f *Frontend) Drained() bool {
	return f.gensLive == 0 && f.pendingRetries == 0 && f.queued == 0 && f.inflight == 0
}

// requeue returns an aborted batch (popped by NextBatch, never executed)
// to the front of its tenant's queue in original order, refunding the WFQ
// finish-tag charge the pops accrued. The requests are not re-admitted —
// Offered/Admitted are untouched and the queue-depth gauge is set to the
// corrected absolute value, so nothing is double-counted.
func (f *Frontend) requeue(now simnet.Time, batch []*Request) {
	if len(batch) == 0 {
		return
	}
	t := &f.tenants[batch[0].Tenant]
	w := t.weight()
	var cost float64
	for i := len(batch) - 1; i >= 0; i-- {
		r := batch[i]
		r.next = t.head
		t.head = r
		if t.tail == nil {
			t.tail = r
		}
		cost += r.cost
	}
	t.qlen += len(batch)
	if t.qlen > t.MaxQueue {
		t.MaxQueue = t.qlen
	}
	f.queued += len(batch)
	if f.queued > f.maxDepth {
		f.maxDepth = f.queued
	}
	f.inflight -= len(batch)
	// Refund the charge, then restamp the head tag the way Admit does for an
	// empty→backlogged transition: the batch must not inherit a finish tag it
	// never got service for, nor claim an ancient start.
	t.lastFinish -= cost / w
	start := t.lastFinish
	if f.vt > start {
		start = f.vt
	}
	t.headTag = start + t.head.cost/w
	if f.el != nil {
		f.el.Migrated += int64(len(batch))
	}
	f.rec.CounterAdd(0, "serve.migrated", now, int64(len(batch)))
	f.rec.GaugeSet(0, "serve.queue_depth", now, int64(f.queued))
}
