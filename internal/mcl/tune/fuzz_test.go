package tune

import (
	"bytes"
	"testing"
)

// FuzzDecodeCache feeds arbitrary bytes to DecodeCache. It must never
// panic. Whatever it accepts holds no nil entry and round-trips: encoding
// the decoded cache, decoding that and encoding again yields the same
// bytes. The committed corpus in testdata/fuzz/FuzzDecodeCache runs as part
// of go test; go test -fuzz FuzzDecodeCache ./internal/mcl/tune explores
// further.
func FuzzDecodeCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := DecodeCache(in)
		if err != nil {
			return
		}
		for k, e := range c.entries {
			if e == nil {
				t.Fatalf("accepted a nil entry %q from %q", k, in)
			}
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded cache failed: %v\ninput %q", err, in)
		}
		back, err := DecodeCache(enc)
		if err != nil {
			t.Fatalf("Encode output does not decode: %v\ninput %q", err, in)
		}
		if len(back.entries) != len(c.entries) {
			t.Fatalf("round trip changed the entry count %d -> %d\ninput %q", len(c.entries), len(back.entries), in)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the cache:\nfirst  %s\nsecond %s\ninput %q", enc, again, in)
		}
	})
}
