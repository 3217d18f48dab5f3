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

func TestParseCluster(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		nodes int // 0: must be rejected
	}{
		{"2xgtx480,1xk20+xeon_phi", 3},
		{"gtx480", 1},
		{"xeon_phi", 1},
		{" 10xgtx480 , 2xc2050 ", 12},
		{"0xgtx480,1xk20", 0},
		{"-2xgtx480,1xk20", 0},
		{"4096xgtx480", 4096},
		{"4096xgtx480,1xk20", 0},
		{"99999999999xgtx480", 0}, // refused before any spec is appended
		{"1xk20,", 0},
		{"2x", 0},
		{"k20++gtx480", 0},
		{"+k20", 0},
		{"", 0},
	} {
		specs, err := parseCluster(tc.spec)
		if tc.nodes == 0 {
			if err == nil {
				t.Errorf("parseCluster(%q) accepted: %d nodes %v", tc.spec, len(specs), specs)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseCluster(%q): %v", tc.spec, err)
			continue
		}
		if len(specs) != tc.nodes {
			t.Errorf("parseCluster(%q) = %d nodes, want %d", tc.spec, len(specs), tc.nodes)
		}
		for i, ns := range specs {
			for _, d := range ns.Devices {
				if d == "" || strings.TrimSpace(d) != d {
					t.Errorf("parseCluster(%q): node %d has device name %q", tc.spec, i, d)
				}
			}
		}
	}
}
