// Package feedback implements MCL's performance-feedback engine, the heart
// of the "stepwise-refinement for performance" methodology (Sec. II-B):
// programmers pick a hardware description, receive feedback derived from the
// compiler's hardware knowledge, and refine the kernel until no feedback
// remains — then translate down a level and repeat.
//
// The rules consult the same static analysis (mcl/codegen.Analyze) that
// feeds the device cost model, so every diagnostic corresponds to a modeled
// performance effect.
package feedback

import (
	"fmt"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/mcpl"
)

// Severity grades a message.
type Severity int

// Severities.
const (
	Info Severity = iota
	Warning
	Problem
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	default:
		return "problem"
	}
}

// Message is one piece of compiler feedback.
type Message struct {
	Pos      mcpl.Pos
	Severity Severity
	Rule     string
	Text     string
}

func (m Message) String() string {
	return fmt.Sprintf("%v: %s [%s]: %s", m.Pos, m.Severity, m.Rule, m.Text)
}

// Generate produces feedback for the kernel targeting the given hardware
// description. params supplies representative launch values for the scalar
// int parameters (feedback quality depends on realistic sizes). spec may be
// nil when the target level is not a device leaf. info is the kernel's
// checked program.
func Generate(info *mcpl.Info, kernel string, params map[string]int64, target *hdl.Level, spec *device.Spec) ([]Message, error) {
	f := info.Prog.Kernel(kernel)
	if f == nil {
		return nil, fmt.Errorf("feedback: kernel %q not found", kernel)
	}
	var msgs []Message
	add := func(pos mcpl.Pos, sev Severity, rule, format string, args ...any) {
		msgs = append(msgs, Message{Pos: pos, Severity: sev, Rule: rule, Text: fmt.Sprintf(format, args...)})
	}

	if target.Name == "perfect" {
		// Idealized hardware: unlimited compute units, single-cycle memory —
		// there is nothing to optimize for, which is exactly why the
		// methodology starts here.
		return nil, nil
	}

	simd := 32
	if u := target.LookupPar("threads"); u != nil && u.SIMD > 0 {
		simd = u.SIMD
	} else if u := target.LookupPar("vectors"); u != nil && u.SIMD > 0 {
		simd = u.SIMD
	}
	if spec != nil {
		simd = spec.SIMDWidth
	}
	rep, err := codegen.Analyze(info, kernel, params, simd)
	if err != nil {
		return nil, err
	}

	// Rule: coalescing. Applies when the target's global memory requires
	// coalesced access.
	gm := target.LookupMem("global")
	if gm != nil && gm.Coalescing {
		for _, acc := range rep.Accesses {
			switch acc.Class {
			case codegen.AccessStrided:
				add(acc.Pos, Problem, "coalescing",
					"access to %q is strided across the %d SIMD lanes; adjacent threads touch distant addresses. Swap loop/thread dimensions or stage through local memory.",
					acc.Array, simd)
			case codegen.AccessGathered:
				add(acc.Pos, Warning, "coalescing",
					"access to %q uses a data-dependent address (gather); the memory system serializes it per lane.",
					acc.Array)
			}
		}
	}

	// Rule: local-memory reuse. A uniform (per-lane-invariant) access inside
	// a sequential loop re-fetches data that a work-group could stage in
	// local memory once.
	if target.LookupMem("local") != nil && !rep.UsesLocalMemory {
		seen := map[string]bool{}
		for _, acc := range rep.Accesses {
			if acc.InLoop && !acc.Write && acc.Class == codegen.AccessUniform && !seen[acc.Array] {
				seen[acc.Array] = true
				add(acc.Pos, Warning, "local-memory",
					"array %q is re-read every loop iteration by all threads of a block; consider tiling it into local memory.",
					acc.Array)
			}
		}
	}

	// Rule: local-memory capacity.
	if lm := target.LookupMem("local"); lm != nil && lm.Size > 0 && rep.LocalBytes > lm.Size {
		add(f.Pos, Problem, "local-capacity",
			"kernel allocates %d bytes of local memory per work-group but %q provides %d.",
			rep.LocalBytes, target.Name, lm.Size)
	}

	// Rule: divergence.
	if frac := rep.DivergentFrac(); frac > 0.10 && simd > 1 {
		add(f.Pos, Warning, "divergence",
			"%.0f%% of the arithmetic executes under data-dependent control flow; on %d-wide SIMD hardware diverged lanes idle. Restructuring the algorithm may be required.",
			frac*100, simd)
	}

	// Rule: parallelism / occupancy (needs a concrete device).
	if spec != nil {
		want := float64(spec.ComputeUnits * spec.SIMDWidth * 8)
		if rep.ThreadParallelism < want {
			add(f.Pos, Warning, "occupancy",
				"launch exposes %.0f work-items but %s wants at least %.0f to hide memory latency.",
				rep.ThreadParallelism, spec.Name, want)
		}
	}

	// Pass through analysis warnings (unknown trip counts etc.).
	for _, w := range rep.Warnings {
		add(f.Pos, Info, "analysis", "%s", w)
	}
	return msgs, nil
}

// Count tallies messages at or above the given severity.
func Count(msgs []Message, min Severity) int {
	n := 0
	for _, m := range msgs {
		if m.Severity >= min {
			n++
		}
	}
	return n
}
