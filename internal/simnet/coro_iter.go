//go:build go1.23

package simnet

import "iter"

// pull runs b as a coroutine: a resume and the matching yield are direct
// goroutine switches that bypass the scheduler's run queue.
func pull(b body) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](b))
}
