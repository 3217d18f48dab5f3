package ocl

import (
	"testing"

	"cashmere/internal/simnet"
)

// alloc reserves size bytes into b for coroutine p through AllocStep
// inside StepUntil, waiting while memory is short: the direct-style
// allocation the tests write.
func alloc(p *simnet.Proc, d *Device, b *Buffer, size int64) error {
	var err error
	p.StepUntil(func(p *simnet.Proc) bool {
		var ok bool
		ok, err = d.AllocStep(p, b, size)
		return !ok && err == nil
	})
	return err
}

// mustReserve reserves size bytes, which must fit, outside any process:
// AllocStep reserves at once and never needs a process to wake then.
func mustReserve(t *testing.T, d *Device, size int64) *Buffer {
	t.Helper()
	b := new(Buffer)
	if ok, err := d.AllocStep(nil, b, size); !ok || err != nil {
		t.Fatalf("reserving %d bytes: ok=%v err=%v", size, ok, err)
	}
	return b
}
