package simnet

// The tests write a coroutine's channel and resource waits in direct style
// through the helpers below, each of which runs the wait's step form
// inside Proc.StepUntil, as the layers above do.

// receiver receives from channels for one coroutine through Chan.Await and
// TryRecv inside StepUntil. Its step is bound once, so a process that
// keeps one receiver receives without allocating.
type receiver[T any] struct {
	c        *Chan[T]
	deadline Time
	v        T
	ok       bool
	step     func(*Proc) bool
}

// recv receives a value from c, giving up d from now (never when d < 0);
// ok is false when it gave up.
func (r *receiver[T]) recv(p *Proc, c *Chan[T], d Duration) (v T, ok bool) {
	if r.step == nil {
		r.step = r.await
	}
	r.c, r.deadline = c, -1
	if d >= 0 {
		r.deadline = p.Now().Add(d)
	}
	p.StepUntil(r.step)
	v, r.v = r.v, v
	return v, r.ok
}

func (r *receiver[T]) await(p *Proc) bool {
	r.c.Unwait(p)
	if r.v, r.ok = r.c.TryRecv(); r.ok || r.deadline >= 0 && p.Now() >= r.deadline {
		return false
	}
	r.c.Await(p, r.deadline)
	return true
}

// recv receives a value from c for coroutine p.
func recv[T any](p *Proc, c *Chan[T]) T {
	v, _ := new(receiver[T]).recv(p, c, -1)
	return v
}

// recvTimeout receives a value from c for coroutine p, giving up after d;
// ok is false when it gave up.
func recvTimeout[T any](p *Proc, c *Chan[T], d Duration) (T, bool) {
	return new(receiver[T]).recv(p, c, d)
}

// acquire takes n units of r for coroutine p through AcquireStep inside
// StepUntil.
func acquire(p *Proc, r *Resource, n int64) {
	p.StepUntil(func(p *Proc) bool { return !r.AcquireStep(p, n) })
}

// use acquires n units of r for coroutine p, holds them for d and releases
// them.
func use(p *Proc, r *Resource, n int64, d Duration) {
	acquire(p, r, n)
	p.Hold(d)
	r.Release(n)
}
