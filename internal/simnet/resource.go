package simnet

// Resource is a counting semaphore with FIFO fairness, used to model
// contended facilities: network links, PCIe DMA engines, device compute
// engines, CPU cores. Acquire blocks the calling process in virtual time
// until the requested capacity is available.
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
	if n <= 0 || n > r.capacity {
		panic("simnet: bad acquire count on " + r.name)
	}
	for {
		if r.avail >= n && (len(r.waiters) == 0 || r.waiters[0].p == p) {
			if len(r.waiters) > 0 && r.waiters[0].p == p {
				// Copy down instead of re-slicing so the backing array keeps
				// its capacity: steady-state contention then allocates nothing.
				m := copy(r.waiters, r.waiters[1:])
				r.waiters = r.waiters[:m]
			}
			r.account()
			r.avail -= n
			r.wakeNext()
			return
		}
		if !r.queued(p) {
			r.waiters = append(r.waiters, resWaiter{p: p, n: n, epoch: p.epoch})
		} else {
			// Re-arm the epoch for the next park.
			for i := range r.waiters {
				if r.waiters[i].p == p {
					r.waiters[i].epoch = p.epoch
				}
			}
		}
		p.park()
	}
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

func (r *Resource) queued(p *Proc) bool {
	for _, w := range r.waiters {
		if w.p == p {
			return true
		}
	}
	return false
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
