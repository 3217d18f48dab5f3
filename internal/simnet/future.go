package simnet

// Future is a one-shot value that processes can await: the building block
// for spawn/sync results, kernel-completion events and RPC replies. The
// zero value is an incomplete future, so a Future can live inside the
// value it belongs to. Its waiters and the process that completes it must
// run on one kernel: each waiter is woken on its own.
type Future[T any] struct {
	done    bool
	val     T
	waiters []chanWaiter
	first   [1]chanWaiter // waiters' first backing array: most futures have one waiter
}

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// Complete resolves the future with v and wakes all awaiting processes.
// Completing a future twice panics: results in the Satin runtime must be
// produced exactly once.
func (f *Future[T]) Complete(v T) {
	if f.done {
		panic("simnet: future completed twice")
	}
	f.done = true
	f.val = v
	for _, w := range f.waiters {
		w.p.k.post(w.p.k.now, w.p, w.epoch)
	}
	f.waiters = nil
}

// Await blocks p until the future completes and returns its value. If the
// future is already complete it returns immediately without yielding.
func (f *Future[T]) Await(p *Proc) T {
	for !f.done {
		f.wait(p)
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
	deadline := p.k.now.Add(d)
	f.wait(p)
	p.k.post(deadline, p, p.epoch)
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

// wait adds p, at its current epoch, to the processes Complete wakes.
func (f *Future[T]) wait(p *Proc) {
	if f.waiters == nil {
		f.waiters = f.first[:0]
	}
	f.waiters = append(f.waiters, chanWaiter{p: p, epoch: p.epoch})
}

// Peek returns the value if complete.
func (f *Future[T]) Peek() (v T, ok bool) {
	if !f.done {
		return v, false
	}
	return f.val, true
}
