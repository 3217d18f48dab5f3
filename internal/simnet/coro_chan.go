//go:build !go1.23

package simnet

// pull falls back to channel handoff where iter.Pull is not available.
func pull(b body) (next func() (struct{}, bool), stop func()) {
	return chanPull(b)
}
