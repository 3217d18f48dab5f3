package simnet

// Future is a one-shot value that processes can await: the building block
// for spawn/sync results, kernel-completion events and RPC replies.
type Future[T any] struct {
	k       *Kernel
	done    bool
	val     T
	waiters []chanWaiter
	when    Time
}

// NewFuture returns an incomplete future bound to k.
func NewFuture[T any](k *Kernel) *Future[T] {
	return &Future[T]{k: k}
}

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// When reports the virtual time at which the future was completed. It is
// only meaningful once Done returns true.
func (f *Future[T]) When() Time { return f.when }

// Complete resolves the future with v and wakes all awaiting processes.
// Completing a future twice panics: results in the Satin runtime must be
// produced exactly once.
func (f *Future[T]) Complete(v T) {
	if f.done {
		panic("simnet: future completed twice")
	}
	f.done = true
	f.val = v
	f.when = f.k.now
	for _, w := range f.waiters {
		f.k.post(f.k.now, w.p, w.epoch)
	}
	f.waiters = nil
}

// Await blocks p until the future completes and returns its value. If the
// future is already complete it returns immediately without yielding.
func (f *Future[T]) Await(p *Proc) T {
	for !f.done {
		f.waiters = append(f.waiters, chanWaiter{p: p, epoch: p.epoch})
		p.park()
	}
	return f.val
}

// AwaitTimeout blocks p until the future completes or d elapses; ok
// reports completion. Like Await, it returns immediately when already
// complete.
func (f *Future[T]) AwaitTimeout(p *Proc, d Duration) (v T, ok bool) {
	if f.done {
		return f.val, true
	}
	deadline := f.k.now.Add(d)
	f.waiters = append(f.waiters, chanWaiter{p: p, epoch: p.epoch})
	f.k.post(deadline, p, p.epoch)
	p.park()
	if f.done {
		return f.val, true
	}
	// Timed out: drop our stale waiter entry.
	for i, w := range f.waiters {
		if w.p == p {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			break
		}
	}
	return v, false
}

// Peek returns the value if complete.
func (f *Future[T]) Peek() (v T, ok bool) {
	if !f.done {
		return v, false
	}
	return f.val, true
}
