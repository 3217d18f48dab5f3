package main

import (
	"reflect"
	"testing"
)

// TestParseParams: -params accepts distinct name=value pairs and rejects
// empty names, repeated names and malformed entries instead of silently
// keeping one of them.
func TestParseParams(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]int64
		bad  bool
	}{
		{in: "", want: map[string]int64{}},
		{in: "n=1024", want: map[string]int64{"n": 1024}},
		{in: "n=1024,k=4,d=-4", want: map[string]int64{"n": 1024, "k": 4, "d": -4}},
		{in: "=5,n=1024", bad: true},
		{in: "n=1024,n=7", bad: true},
		{in: "n=1024,k=4,n=1024", bad: true},
		{in: "n", bad: true},
		{in: "n=1024,", bad: true},
		{in: "n=x", bad: true},
		{in: "n=", bad: true},
	} {
		got, err := parseParams(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("parseParams(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseParams(%q): %v", tc.in, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseParams(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
