package simnet

// Chan is an unbounded FIFO message queue between simulation processes.
// Sends never block. A receiver takes a queued value with TryRecv or, when
// none is queued, waits for the next send with Await — from a step process,
// or from a coroutine inside Proc.StepUntil. Values are delivered in send
// order and waiting receivers are served in arrival order.
//
// Chan models zero-latency in-memory queues: transport delays belong to the
// network and PCIe models, which Hold for the modeled duration before
// delivering into a Chan.
//
// The backing buffer is recycled: consumed slots at the front are reused
// instead of sliding the slice forward, so steady-state traffic (queue
// filling and draining around a stable depth) allocates nothing.
type Chan[T any] struct {
	k       *Kernel
	buf     []T
	head    int // index of the front value; len(buf)-head values are live
	waiters []chanWaiter
}

type chanWaiter struct {
	p     *Proc
	epoch uint64
}

// NewChan returns an empty channel bound to k.
func NewChan[T any](k *Kernel) *Chan[T] {
	return &Chan[T]{k: k}
}

// Len reports the number of queued values.
func (c *Chan[T]) Len() int { return len(c.buf) - c.head }

// push appends v, sliding live values back to the start of the buffer when
// the consumed prefix can be reused instead of growing.
func (c *Chan[T]) push(v T) {
	if c.head > 0 && len(c.buf) == cap(c.buf) {
		n := copy(c.buf, c.buf[c.head:])
		clear(c.buf[n:])
		c.buf = c.buf[:n]
		c.head = 0
	}
	c.buf = append(c.buf, v)
}

// pop removes and returns the front value; the channel must not be empty.
func (c *Chan[T]) pop() T {
	var zero T
	v := c.buf[c.head]
	c.buf[c.head] = zero // drop the reference for the collector
	c.head++
	if c.head == len(c.buf) {
		c.buf = c.buf[:0]
		c.head = 0
	}
	return v
}

// Send enqueues v and wakes the longest-waiting receiver, if any. It may be
// called from any running process (or before Run starts).
func (c *Chan[T]) Send(v T) {
	c.push(v)
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		n := copy(c.waiters, c.waiters[1:])
		c.waiters = c.waiters[:n]
		c.k.post(c.k.now, w.p, w.epoch)
	}
}

// TryRecv returns a queued value without blocking. ok is false if the
// channel is empty.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.Len() == 0 {
		return v, false
	}
	return c.pop(), true
}

// Await arms step process p to wake on the next send to c or, when
// deadline >= 0, at deadline, whichever comes first. The woken step calls
// Unwait, then takes a value with TryRecv or, if none came and the deadline
// has not passed, awaits again with the same deadline: a receive with a
// timeout. The send's wake and the timeout's are posted against the same
// park epoch, so whichever comes second is stale.
func (c *Chan[T]) Await(p *Proc, deadline Time) {
	p.mustStep()
	c.waiters = append(c.waiters, chanWaiter{p: p, epoch: p.epoch})
	if deadline >= 0 {
		c.k.post(deadline, p, p.epoch)
	}
	p.arm()
}

// Unwait drops p from c's waiting receivers, if a timeout woke it first.
func (c *Chan[T]) Unwait(p *Proc) {
	for i, w := range c.waiters {
		if w.p == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}
