package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo is the header of every results file: what ran, where, and with
// which settings.
type hostInfo struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	Partitions   int     `json:"partitions"` // resolved for the workload's largest cluster
	Quick        bool    `json:"quick"`
	Seconds      float64 `json:"seconds"`
	Passes       int     `json:"passes"`        // untraced passes behind wall_s
	TracedPasses int     `json:"traced_passes"` // traced passes behind the self times
	SetupSamples int     `json:"setup_samples"` // set-ups behind setup_s
}

func newHostInfo(o options) hostInfo {
	return hostInfo{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: procs(),
		GoVersion: runtime.Version(), Commit: gitCommit(),
		Seed: o.seed, Quick: o.quick, Seconds: o.seconds,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reports the commit the binary was built from, as go build
// stamps it inside a git checkout ("+dirty" with local changes), or
// "unknown".
func gitCommit() string {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

// resetPeakRSS restarts the kernel's count of the process's peak resident
// set (VmHWM) from the current resident set; where that is unsupported the
// count keeps covering the whole process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reports the process's peak resident set (VmHWM), falling back
// to the Go runtime's view of the memory it obtained from the OS.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
