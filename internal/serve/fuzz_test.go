package serve

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseTrace feeds arbitrary text to ParseTrace. It must never panic.
// Whatever it accepts must be well formed (non-negative offsets sorted per
// tenant, no empty tenant names) and survive a FormatTrace/ParseTrace
// round trip unchanged. The committed corpus in testdata/fuzz/FuzzParseTrace
// runs as part of go test; go test -fuzz FuzzParseTrace ./internal/serve
// explores further.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		traces, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		for name, evs := range traces {
			if name == "" {
				t.Fatalf("accepted an empty tenant name from %q", in)
			}
			for i, ev := range evs {
				if ev.At < 0 {
					t.Fatalf("tenant %q: accepted negative offset %d from %q", name, ev.At, in)
				}
				if i > 0 && ev.At < evs[i-1].At {
					t.Fatalf("tenant %q: events not sorted by offset: %+v", name, evs)
				}
			}
		}
		back, err := ParseTrace(strings.NewReader(FormatTrace(traces)))
		if err != nil {
			t.Fatalf("FormatTrace output does not parse: %v\ninput %q", err, in)
		}
		if !reflect.DeepEqual(back, traces) {
			t.Fatalf("round trip changed the trace:\nparsed %+v\nback   %+v\ninput %q", traces, back, in)
		}
	})
}
