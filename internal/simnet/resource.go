package simnet

// Resource is a counting semaphore with FIFO fairness, used to model
// contended facilities: network links, PCIe DMA engines, device compute
// engines, CPU cores. A process takes capacity with AcquireStep, from a
// step process or from a coroutine inside Proc.StepUntil, and waits in
// virtual time until the requested capacity is available.
type Resource struct {
	k        *Kernel
	name     string
	capacity int64
	avail    int64
	waiters  []resWaiter
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

// AcquireStep takes n units for step process p and reports true when p's
// turn has come, or queues p, arms its wake for the grant and reports
// false; the woken step calls AcquireStep again. Requests are granted in
// FIFO order: a large request at the head of the queue blocks smaller
// requests behind it, preventing starvation. Called from a coroutine
// outside StepUntil, it panics naming the process.
func (r *Resource) AcquireStep(p *Proc, n int64) bool {
	p.mustStep()
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
		r.avail -= n
		r.wakeNext()
		return true
	}
	p.arm()
	for i := range r.waiters {
		if r.waiters[i].p == p {
			r.waiters[i].epoch = p.epoch
			return false
		}
	}
	r.waiters = append(r.waiters, resWaiter{p: p, n: n, epoch: p.epoch})
	return false
}

// Release returns n units and wakes the head waiter if its request now fits.
func (r *Resource) Release(n int64) {
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
