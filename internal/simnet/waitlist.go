package simnet

// WaitList is an embeddable list of parked processes — the building block
// for condition-style waits owned by higher layers (ocl command-queue
// events, device-memory pressure, idle serving dispatchers). A process
// parks on it with Park after observing an unmet condition, or a step
// process arms its wake on it with Arm; whoever makes the condition true
// calls WakeAll. Waits must follow the usual epoch discipline: callers
// loop re-checking their condition, because WakeAll wakes every waiting
// process and only some of them may find the condition still true.
//
// The backing slice is retained across WakeAll calls, so a WaitList that
// cycles through park/wake in steady state allocates nothing.
type WaitList struct {
	ws []chanWaiter
}

// Park registers p against its current park epoch and blocks it until a
// later WakeAll (or any other wake targeting the same epoch) fires.
func (w *WaitList) Park(p *Proc) {
	w.ws = append(w.ws, chanWaiter{p: p, epoch: p.epoch})
	p.park()
}

// Arm is Park for a step process, which returns instead of blocking: it
// registers p against its current park epoch and arms its wake for the
// next WakeAll. The woken step re-checks its condition and arms again if
// it still does not hold — exactly the events of a Park loop. Called from
// a coroutine outside StepUntil, it panics naming the process.
func (w *WaitList) Arm(p *Proc) {
	p.arm()
	w.ws = append(w.ws, chanWaiter{p: p, epoch: p.epoch})
}

// WakeAll schedules a wake for every waiting process at the current
// virtual time, in registration order, and empties the list.
func (w *WaitList) WakeAll(k *Kernel) {
	for _, wa := range w.ws {
		k.post(k.now, wa.p, wa.epoch)
	}
	w.ws = w.ws[:0]
}

// Empty reports whether no process is waiting on the list.
func (w *WaitList) Empty() bool { return len(w.ws) == 0 }
