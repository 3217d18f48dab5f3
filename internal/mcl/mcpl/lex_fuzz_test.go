package mcpl_test

import (
	"fmt"
	"slices"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/mcl/mcpl"
)

// FuzzLex holds Lex to LexRef, the reference lexer: both must return the
// same tokens (kind, text and position) and the same error for any source.
// The seeds are every application kernel, every multi-character
// punctuator, and one source per lexer diagnostic; they run as part of go
// test, and go test -fuzz FuzzLex ./internal/mcl/mcpl explores further.
func FuzzLex(f *testing.F) {
	for _, src := range []string{
		apps.KMeansPerfect, apps.KMeansGPU, apps.KMeansMIC,
		apps.MatmulPerfect, apps.MatmulGPU,
		apps.NBodyPerfect, apps.NBodyGPU,
		apps.RaytracerPerfect,
	} {
		f.Add(src)
	}
	for _, p := range []string{
		"<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||",
		"+=", "-=", "*=", "/=", "%=", "<<", ">>", "++", "--",
	} {
		f.Add(p)
		f.Add("a" + p + "b")
	}
	f.Add("int x; /* unterminated block comment")
	f.Add("int x = 1 $ 2;")
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := mcpl.Lex(src)
		want, werr := mcpl.LexRef(src)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("source %q: error %v, reference %v", src, gerr, werr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("source %q:\ntokens    %v\nreference %v", src, got, want)
		}
	})
}
