package serve

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"cashmere/internal/simnet"
)

// Trace replay: a fourth workload source alongside Poisson/MMPP/diurnal.
// A tenant with ArrivalSpec.Kind == Replay offers requests at the exact
// offsets of an explicit schedule instead of drawing gaps from the
// simulation RNG — the tool for replaying production arrival logs, for
// regression workloads that must not shift when unrelated RNG draws move,
// and for adversarial schedules no stochastic process would produce.

// TraceEvent is one arrival of a replay schedule.
type TraceEvent struct {
	// At is the arrival time as an offset from the start of the run (or of
	// the current tile when the trace repeats).
	At simnet.Duration
	// Class is the index into the tenant's Mix (out-of-range clamps to 0).
	Class int
}

// replayStep is the Replay-kind arrival step: it offers every trace event
// due by now, tiling the schedule every TracePeriod when set, and arms its
// wake at the next event; it reports false once the next event would fall
// past the horizon, or the trace is exhausted.
func (g *generator) replayStep(p *simnet.Proc) bool {
	f, k := g.f, p.Kernel()
	spec := &f.cfg.Tenants[g.tenant]
	t := &f.tenants[g.tenant]
	horizon := simnet.Time(f.cfg.Horizon)
	events := spec.Arrival.Trace
	if len(events) == 0 {
		return false
	}
	for {
		for ; g.next < len(events); g.next++ {
			ev := events[g.next]
			at := g.base.Add(ev.At)
			if at > horizon {
				return false
			}
			if at > p.Now() {
				p.Arm(simnet.Duration(at - p.Now()))
				return true
			}
			class := ev.Class
			if class < 0 || class >= len(t.costs) {
				class = 0
			}
			f.offer(k, p.Now(), g.tenant, class, false)
		}
		period := spec.Arrival.TracePeriod
		if period <= 0 {
			return false
		}
		g.base, g.next = g.base.Add(period), 0
		if g.base > horizon {
			return false
		}
	}
}

// ParseTrace reads the text trace format: one arrival per line as
// "<tenant> <offset_ns> <class>", with blank lines and '#' comments
// ignored. A line with any other number of fields, a non-decimal or
// negative offset or class is an error. Events are sorted by offset per
// tenant.
func ParseTrace(r io.Reader) (map[string][]TraceEvent, error) {
	out := map[string][]TraceEvent{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		f := strings.Fields(s)
		if len(f) != 3 {
			return nil, fmt.Errorf("serve: trace line %d: %d fields, want \"<tenant> <offset_ns> <class>\"", line, len(f))
		}
		off, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: trace line %d: offset: %v", line, err)
		}
		class, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("serve: trace line %d: class: %v", line, err)
		}
		if off < 0 {
			return nil, fmt.Errorf("serve: trace line %d: negative offset", line)
		}
		if class < 0 {
			return nil, fmt.Errorf("serve: trace line %d: negative class", line)
		}
		out[f[0]] = append(out[f[0]], TraceEvent{At: simnet.Duration(off), Class: class})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, evs := range out {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	}
	return out, nil
}

// FormatTrace renders per-tenant traces in the ParseTrace text format,
// tenants in name order (byte-stable for a given input).
func FormatTrace(traces map[string][]TraceEvent) string {
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# tenant offset_ns class\n")
	for _, name := range names {
		for _, ev := range traces[name] {
			fmt.Fprintf(&b, "%s %d %d\n", name, int64(ev.At), ev.Class)
		}
	}
	return b.String()
}

// SynthesizeTrace draws a Poisson arrival schedule per tenant from a
// private RNG (fully determined by seed, independent of the simulation
// streams), with classes drawn at the tenant's mix weights. It is the
// source of cashmere-serve's "-replay synth" mode and of replay tests that
// need a non-trivial schedule without a log file.
func SynthesizeTrace(tenants []TenantSpec, horizon simnet.Duration, seed int64) map[string][]TraceEvent {
	out := map[string][]TraceEvent{}
	for ti := range tenants {
		t := &tenants[ti]
		rate := t.Arrival.RatePerSec / 1e9
		if rate <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed + int64(ti+1)*912_367_983))
		var cum []int
		total := 0
		for _, c := range t.Mix {
			w := c.Weight
			if w < 1 {
				w = 1
			}
			total += w
			cum = append(cum, total)
		}
		var evs []TraceEvent
		at := 0.0
		for {
			at += rng.ExpFloat64() / rate
			if at >= float64(horizon) {
				break
			}
			class := 0
			if total > 1 {
				pick := rng.Intn(total)
				for class < len(cum)-1 && pick >= cum[class] {
					class++
				}
			}
			evs = append(evs, TraceEvent{At: simnet.Duration(at), Class: class})
		}
		out[t.Name] = evs
	}
	return out
}

// ApplyTrace switches every tenant named in traces to Replay arrivals with
// the given tiling period (0 plays each trace once). Trace names that match
// no tenant are an error.
func (w *Workload) ApplyTrace(traces map[string][]TraceEvent, period simnet.Duration) error {
	known := map[string]int{}
	for i := range w.Tenants {
		known[w.Tenants[i].Name] = i
	}
	var unknown []string
	for name := range traces {
		if _, ok := known[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("serve: trace names unknown tenant %q", unknown[0])
	}
	for name, evs := range traces {
		t := &w.Tenants[known[name]]
		t.Arrival.Kind = Replay
		t.Arrival.Trace = evs
		t.Arrival.TracePeriod = period
	}
	return nil
}
