package hdl

import "testing"

// FuzzParse feeds arbitrary source to Parse. It must never panic, and every
// leaf of a hierarchy it accepts must resolve: its PathToRoot climbs one
// level at a time through levels the hierarchy names, ending at the root,
// and MostSpecific picks the leaf itself from that path and the root from
// the root alone. The committed corpus in testdata/fuzz/FuzzParse
// (LibrarySource and variants of it) runs as part of go test;
// go test -fuzz FuzzParse ./internal/mcl/hdl explores further.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		h, err := Parse(src)
		if err != nil {
			return
		}
		for _, leaf := range h.Leaves() {
			path := leaf.PathToRoot()
			if path[len(path)-1] != h.Root {
				t.Fatalf("leaf %q: path ends at %q, not the root %q\nsource %q", leaf.Name, path[len(path)-1].Name, h.Root.Name, src)
			}
			names := make([]string, len(path))
			for i, lv := range path {
				if got, err := h.Lookup(lv.Name); err != nil || got != lv {
					t.Fatalf("leaf %q: path level %q does not resolve to itself (%v)\nsource %q", leaf.Name, lv.Name, err, src)
				}
				if lv.Depth() != len(path)-1-i {
					t.Fatalf("leaf %q: level %q has depth %d at path position %d of %d\nsource %q", leaf.Name, lv.Name, lv.Depth(), i, len(path), src)
				}
				names[i] = lv.Name
			}
			if got, err := h.MostSpecific(names, leaf.Name); err != nil || got != leaf.Name {
				t.Fatalf("leaf %q: MostSpecific over its own path = %q, %v\nsource %q", leaf.Name, got, err, src)
			}
			if got, err := h.MostSpecific([]string{h.Root.Name}, leaf.Name); err != nil || got != h.Root.Name {
				t.Fatalf("leaf %q: MostSpecific over the root = %q, %v\nsource %q", leaf.Name, got, err, src)
			}
		}
	})
}
