package simnet

import "runtime"

// body is a process body in coroutine form. pull starts it as a coroutine,
// with the contract of iter.Pull:
//
//   - next resumes the body until it calls yield (ok = true) or returns
//     (ok = false); a finished coroutine's next returns false at once;
//   - a panic in the body comes out of next with its original value, and a
//     runtime.Goexit in the body exits next's goroutine;
//   - stop makes a pending yield return false and waits for the body to
//     return (a yield after that returns false at once); a body that never
//     started never runs.
//
// pull is iter.Pull from go1.23 on (coro_iter.go) and chanPull before.
type body = func(yield func(struct{}) bool)

// chanPull is pull on a goroutine and two unbuffered channels, for
// toolchains without iter.Pull. Every resume and every yield is one channel
// transfer between the caller's goroutine and the body's.
func chanPull(b body) (next func() (struct{}, bool), stop func()) {
	var (
		wake     = make(chan bool) // caller -> body: true resumes, false stops
		back     = make(chan struct{})
		done     bool
		panicked any
		goexit   bool
	)
	yield := func(struct{}) bool {
		if !done {
			back <- struct{}{}
			done = !<-wake
		}
		return !done
	}
	go func() {
		returned := false
		defer func() {
			if !returned {
				panicked = recover()
				goexit = panicked == nil
			}
			done = true
			back <- struct{}{}
		}()
		if <-wake {
			b(yield)
		}
		returned = true
	}()
	// resume hands control to the body and re-raises how it ended.
	resume := func(v bool) {
		wake <- v
		<-back
		if panicked != nil {
			panic(panicked)
		}
		if goexit {
			runtime.Goexit()
		}
	}
	next = func() (struct{}, bool) {
		if !done {
			resume(true)
		}
		return struct{}{}, !done
	}
	stop = func() {
		if !done {
			resume(false)
		}
	}
	return next, stop
}
