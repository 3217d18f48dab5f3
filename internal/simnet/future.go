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

// Arm is Await for a step process: it arms p's wake for the completion of
// a future that is not complete yet. A step that also arms a timer
// (Proc.Arm) waits for whichever comes first; woken with the future still
// incomplete, it calls Unwait before it arms again. Both wakes are
// posted against the same park epoch, so whichever comes second is stale.
func (f *Future[T]) Arm(p *Proc) {
	p.arm()
	f.wait(p)
}

// Unwait drops p from the processes Complete wakes, if a timer woke it
// first.
func (f *Future[T]) Unwait(p *Proc) { f.waiters = unwait(f.waiters, p) }

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
