package simnet

// Resource is a counting semaphore with FIFO fairness, used to model
// contended facilities: network links, PCIe DMA engines, device compute
// engines, CPU cores. Acquire blocks the calling process in virtual time
// until the requested capacity is available; AcquireStep is the same wait
// for a step process.
type Resource struct {
	k        *Kernel
	name     string
	capacity int64
	avail    int64
	waiters  []resWaiter

	// Utilization accounting.
	busyInt Time // integral of (capacity - avail) over time
	lastUpd Time
}

type resWaiter struct {
	p     *Proc
	n     int64
	epoch uint64
}

// NewResource returns a resource with the given total capacity.
func NewResource(k *Kernel, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("simnet: resource capacity must be positive: " + name)
	}
	return &Resource{k: k, name: name, capacity: capacity, avail: capacity}
}

// Name reports the resource's name.
func (r *Resource) Name() string { return r.name }

func (r *Resource) account() {
	r.busyInt += Time(int64(r.k.now-r.lastUpd) * (r.capacity - r.avail))
	r.lastUpd = r.k.now
}

// Acquire blocks p until n units are available and takes them. Requests are
// granted in FIFO order; a large request at the head of the queue blocks
// smaller requests behind it, preventing starvation.
func (r *Resource) Acquire(p *Proc, n int64) {
	for !r.take(p, n) {
		p.park()
	}
}

// AcquireStep is Acquire for a step process, which returns instead of
// blocking: it takes n units and reports true when p's turn has come, or
// queues p, arms its wake for the grant and reports false. The woken step
// calls AcquireStep again — exactly the events Acquire produces. Called
// from a coroutine outside StepUntil, it panics naming the process.
func (r *Resource) AcquireStep(p *Proc, n int64) bool {
	p.mustStep()
	if r.take(p, n) {
		return true
	}
	p.arm()
	return false
}

// take grants n units to p when they are available and no earlier request
// waits, and reports whether it did. Otherwise p is queued (or, if already
// queued, re-armed for its current park epoch) to be woken by wakeNext.
func (r *Resource) take(p *Proc, n int64) bool {
	if n <= 0 || n > r.capacity {
		panic("simnet: bad acquire count on " + r.name)
	}
	head := len(r.waiters) > 0 && r.waiters[0].p == p
	if r.avail >= n && (len(r.waiters) == 0 || head) {
		if head {
			// Copy down instead of re-slicing so the backing array keeps
			// its capacity: steady-state contention then allocates nothing.
			m := copy(r.waiters, r.waiters[1:])
			r.waiters = r.waiters[:m]
		}
		r.account()
		r.avail -= n
		r.wakeNext()
		return true
	}
	for i := range r.waiters {
		if r.waiters[i].p == p {
			r.waiters[i].epoch = p.epoch
			return false
		}
	}
	r.waiters = append(r.waiters, resWaiter{p: p, n: n, epoch: p.epoch})
	return false
}

// TryAcquire takes n units if they are immediately available, without
// queueing. It reports whether the acquisition succeeded.
func (r *Resource) TryAcquire(n int64) bool {
	if n <= 0 || n > r.capacity {
		panic("simnet: bad acquire count on " + r.name)
	}
	if r.avail >= n && len(r.waiters) == 0 {
		r.account()
		r.avail -= n
		return true
	}
	return false
}

// Release returns n units and wakes the head waiter if its request now fits.
func (r *Resource) Release(n int64) {
	r.account()
	r.avail += n
	if r.avail > r.capacity {
		panic("simnet: over-release on " + r.name)
	}
	r.wakeNext()
}

func (r *Resource) wakeNext() {
	if len(r.waiters) > 0 && r.avail >= r.waiters[0].n {
		w := r.waiters[0]
		r.k.post(r.k.now, w.p, w.epoch)
	}
}

// Use acquires n units, holds them for d, and releases them: the common
// "occupy a facility for a modeled duration" idiom.
func (r *Resource) Use(p *Proc, n int64, d Duration) {
	r.Acquire(p, n)
	p.Hold(d)
	r.Release(n)
}

// Utilization reports the time-averaged fraction of capacity in use since
// the start of the simulation (or 0 before any time has elapsed).
func (r *Resource) Utilization() float64 {
	if r.k.now == 0 {
		return 0
	}
	busy := r.busyInt + Time(int64(r.k.now-r.lastUpd)*(r.capacity-r.avail))
	return float64(busy) / float64(int64(r.k.now)*r.capacity)
}
