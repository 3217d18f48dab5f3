package main

import (
	"strings"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
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
		{strings.Repeat("gtx480+", 30) + "gtx480", 1},        // 31 devices
		{"2x" + strings.Repeat("gtx480+", 31) + "gtx480", 0}, // 32 devices per node
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

// FuzzParseCluster: parseCluster never panics, and every spec it accepts
// gives 1..core.MaxNodes nodes, each with 1..core.MaxDevicesPerNode (31)
// devices and no empty device name. The seeds run as part of go test;
// go test -fuzz FuzzParseCluster ./cmd/cashmere-run explores further.
func FuzzParseCluster(f *testing.F) {
	for _, s := range []string{"2xgtx480", "1xk20+xeon_phi", "0xgtx480", "99999999999xgtx480", "2x", ","} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		specs, err := parseCluster(spec)
		if err != nil {
			return
		}
		if len(specs) < 1 || len(specs) > core.MaxNodes {
			t.Fatalf("parseCluster(%q) = %d nodes, want 1..%d", spec, len(specs), core.MaxNodes)
		}
		for i, ns := range specs {
			if len(ns.Devices) < 1 || len(ns.Devices) > core.MaxDevicesPerNode {
				t.Fatalf("parseCluster(%q): node %d has %d devices, want 1..%d", spec, i, len(ns.Devices), core.MaxDevicesPerNode)
			}
			for _, d := range ns.Devices {
				if d == "" {
					t.Fatalf("parseCluster(%q): node %d has an empty device name", spec, i)
				}
			}
		}
	})
}
