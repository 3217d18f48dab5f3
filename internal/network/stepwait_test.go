package network

import "cashmere/internal/simnet"

// receiver receives from endpoints' inboxes for one coroutine through
// the inbox's Await and TryRecv inside StepUntil, the direct-style receive
// the tests write; it waits on the inbox itself, as Endpoint.Await takes
// no deadline. Its step is bound once, so a process that keeps one
// receiver receives without allocating.
type receiver struct {
	e        *Endpoint
	deadline simnet.Time
	m        Message
	ok       bool
	step     func(*simnet.Proc) bool
}

// recv receives a message from e's inbox, giving up d from now (never when
// d < 0); ok is false when it gave up.
func (r *receiver) recv(p *simnet.Proc, e *Endpoint, d simnet.Duration) (m Message, ok bool) {
	if r.step == nil {
		r.step = r.await
	}
	r.e, r.deadline = e, -1
	if d >= 0 {
		r.deadline = p.Now().Add(d)
	}
	p.StepUntil(r.step)
	m, r.m = r.m, m
	return m, r.ok
}

func (r *receiver) await(p *simnet.Proc) bool {
	r.e.inbox.Unwait(p)
	if r.m, r.ok = r.e.TryRecv(); r.ok || r.deadline >= 0 && p.Now() >= r.deadline {
		return false
	}
	r.e.inbox.Await(p, r.deadline)
	return true
}

// recv receives a message from e's inbox for coroutine p.
func recv(p *simnet.Proc, e *Endpoint) Message {
	m, _ := new(receiver).recv(p, e, -1)
	return m
}
