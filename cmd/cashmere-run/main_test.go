package main

import (
	"strings"
	"testing"

	"cashmere/internal/apps"
)

func TestParseVariant(t *testing.T) {
	for s, want := range map[string]apps.Variant{
		"satin": apps.Satin, "unopt": apps.CashmereUnoptimized, "opt": apps.CashmereOptimized,
	} {
		got, err := parseVariant(s)
		if err != nil || got != want {
			t.Errorf("parseVariant(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "typo", "Opt", "optimized"} {
		_, err := parseVariant(s)
		if err == nil {
			t.Errorf("parseVariant(%q) accepted", s)
			continue
		}
		for _, valid := range []string{"satin", "unopt", "opt"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("parseVariant(%q) error %q does not list %q", s, err, valid)
			}
		}
	}
}
