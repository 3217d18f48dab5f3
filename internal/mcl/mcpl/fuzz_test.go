package mcpl

import "testing"

// FuzzParseCheck feeds arbitrary source to Parse and, when it parses, to
// Check. Neither may panic: malformed MCPL fails with an error. The
// committed corpus in testdata/fuzz/FuzzParseCheck (every kernel of the
// four apps, at each of its levels) runs as part of go test;
// go test -fuzz FuzzParseCheck ./internal/mcl/mcpl explores further.
func FuzzParseCheck(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if prog == nil {
			t.Fatalf("Parse returned neither a program nor an error\nsource %q", src)
		}
		if info, err := Check(prog); err == nil && info == nil {
			t.Fatalf("Check returned neither info nor an error\nsource %q", src)
		}
	})
}
