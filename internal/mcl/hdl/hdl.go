// Package hdl implements MCL's Hardware Description Language: the library
// of hardware descriptions, organized in a hierarchy (Fig. 2 of the paper),
// that MCPL kernels target. Each child description specifies more detail
// about the many-core hardware than its parent; the root, "perfect",
// describes idealized hardware with unlimited compute units and single-cycle
// memory.
//
// A hardware description defines:
//
//   - parallelism identifiers (e.g. threads, blocks) that foreach statements
//     reference, with nesting, size limits and SIMD widths;
//   - memory spaces (main/global/local/private) with sizes, scopes and
//     coalescing requirements;
//   - mapping rules that tell the translator how a parent level's
//     parallelism decomposes at this level (e.g. perfect's `threads` become
//     `blocks` of `threads` on a GPU);
//   - free-form properties that feedback rules consult.
package hdl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ParUnit is a parallelism identifier defined by a hardware description.
type ParUnit struct {
	Name   string
	Within string // enclosing unit name, or "" for the outermost
	Max    int64  // maximum extent, 0 = unlimited
	SIMD   int    // lanes executing in lockstep, 0 = none
}

// MemSpace is a memory space defined by a hardware description.
type MemSpace struct {
	Name       string
	Within     string // parallelism unit the space is private to, "" = device-wide
	Size       int64  // bytes, 0 = unlimited
	Coalescing bool   // accesses must be coalesced across SIMD lanes for full bandwidth
}

// Level is one hardware description in the hierarchy.
type Level struct {
	Name     string
	Parent   *Level
	Par      map[string]*ParUnit
	Mem      map[string]*MemSpace
	Mappings map[string][]string // parent unit -> nested units at this level, outermost first
	Props    map[string]string
}

// LookupPar resolves a parallelism identifier at this level, searching
// ancestors.
func (l *Level) LookupPar(name string) *ParUnit {
	for lv := l; lv != nil; lv = lv.Parent {
		if u, ok := lv.Par[name]; ok {
			return u
		}
	}
	return nil
}

// LookupMem resolves a memory space at this level, searching ancestors.
func (l *Level) LookupMem(name string) *MemSpace {
	for lv := l; lv != nil; lv = lv.Parent {
		if m, ok := lv.Mem[name]; ok {
			return m
		}
	}
	return nil
}

// Depth reports the distance to the root.
func (l *Level) Depth() int {
	d := 0
	for lv := l.Parent; lv != nil; lv = lv.Parent {
		d++
	}
	return d
}

// HasAncestor reports whether name is this level or one of its ancestors.
func (l *Level) HasAncestor(name string) bool {
	for lv := l; lv != nil; lv = lv.Parent {
		if lv.Name == name {
			return true
		}
	}
	return false
}

// Hierarchy is a parsed library of hardware descriptions.
type Hierarchy struct {
	Levels map[string]*Level
	Root   *Level
}

// Lookup returns the named level or an error.
func (h *Hierarchy) Lookup(name string) (*Level, error) {
	if l, ok := h.Levels[name]; ok {
		return l, nil
	}
	names := make([]string, 0, len(h.Levels))
	for n := range h.Levels {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("hdl: unknown hardware description %q (library: %s)", name, strings.Join(names, ", "))
}

// MostSpecific selects, from the kernel versions available (a set of level
// names), the most specific one applicable to the given leaf: the available
// ancestor-or-self of leaf with the greatest depth. This is how "the Xeon
// Phi has a kernel on level perfect, all NVIDIA GPUs have kernels on level
// gpu and the HD7970 GPU has a kernel on level hd7970" (Sec. III-A).
func (h *Hierarchy) MostSpecific(available []string, leaf string) (string, error) {
	lv, err := h.Lookup(leaf)
	if err != nil {
		return "", err
	}
	best := ""
	bestDepth := -1
	for _, name := range available {
		al, err := h.Lookup(name)
		if err != nil {
			return "", err
		}
		if lv.HasAncestor(name) && al.Depth() > bestDepth {
			best, bestDepth = name, al.Depth()
		}
	}
	if best == "" {
		return "", fmt.Errorf("hdl: no kernel version among %v applies to device level %q", available, leaf)
	}
	return best, nil
}

// Parse parses HDL source into a hierarchy. Descriptions must be declared
// before they are extended.
func Parse(src string) (*Hierarchy, error) {
	p := &parser{toks: tokenize(src)}
	h := &Hierarchy{Levels: map[string]*Level{}}
	for !p.eof() {
		if err := p.hardware(h); err != nil {
			return nil, err
		}
	}
	if h.Root == nil {
		return nil, fmt.Errorf("hdl: library has no root description")
	}
	return h, nil
}

type parser struct {
	toks []string
	off  int
}

func tokenize(src string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '#': // comment to end of line
			flush()
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			flush()
		case c == '{' || c == '}' || c == ';':
			flush()
			toks = append(toks, string(c))
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return toks
}

func (p *parser) eof() bool { return p.off >= len(p.toks) }

func (p *parser) next() string {
	if p.eof() {
		return ""
	}
	t := p.toks[p.off]
	p.off++
	return t
}

func (p *parser) peek() string {
	if p.eof() {
		return ""
	}
	return p.toks[p.off]
}

func (p *parser) expect(t string) error {
	if got := p.next(); got != t {
		return fmt.Errorf("hdl: expected %q, found %q", t, got)
	}
	return nil
}

// parseSize parses 1024, 48K, 16M, 2G or "unlimited" (0).
func parseSize(s string) (int64, error) {
	if s == "unlimited" {
		return 0, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("hdl: bad size %q", s)
	}
	return n * mult, nil
}

func (p *parser) hardware(h *Hierarchy) error {
	if err := p.expect("hardware"); err != nil {
		return err
	}
	name := p.next()
	if name == "" || name == "{" {
		return fmt.Errorf("hdl: missing hardware name")
	}
	if _, dup := h.Levels[name]; dup {
		return fmt.Errorf("hdl: hardware %q redeclared", name)
	}
	l := &Level{
		Name:     name,
		Par:      map[string]*ParUnit{},
		Mem:      map[string]*MemSpace{},
		Mappings: map[string][]string{},
		Props:    map[string]string{},
	}
	if p.peek() == "extends" {
		p.next()
		parent := p.next()
		pl, ok := h.Levels[parent]
		if !ok {
			return fmt.Errorf("hdl: hardware %q extends unknown %q", name, parent)
		}
		l.Parent = pl
	} else if h.Root != nil {
		return fmt.Errorf("hdl: hardware %q must extend another description (root is %q)", name, h.Root.Name)
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	for p.peek() != "}" {
		if p.eof() {
			return fmt.Errorf("hdl: unterminated hardware %q", name)
		}
		if err := p.clause(l); err != nil {
			return fmt.Errorf("hdl: in hardware %q: %w", name, err)
		}
	}
	p.next() // }
	h.Levels[name] = l
	if l.Parent == nil {
		h.Root = l
	}
	return nil
}

func (p *parser) clause(l *Level) error {
	switch kw := p.next(); kw {
	case "parallelism":
		u := &ParUnit{Name: p.next()}
		if p.peek() == "within" {
			p.next()
			u.Within = p.next()
		}
		if err := p.expect("{"); err != nil {
			return err
		}
		for p.peek() != "}" {
			key := p.next()
			val := p.next()
			if err := p.expect(";"); err != nil {
				return err
			}
			switch key {
			case "max":
				n, err := parseSize(val)
				if err != nil {
					return err
				}
				u.Max = n
			case "simd":
				n, err := strconv.Atoi(val)
				if err != nil {
					return fmt.Errorf("bad simd %q", val)
				}
				u.SIMD = n
			default:
				return fmt.Errorf("unknown parallelism key %q", key)
			}
		}
		p.next()
		l.Par[u.Name] = u
		return nil
	case "memory":
		m := &MemSpace{Name: p.next()}
		if p.peek() == "within" {
			p.next()
			m.Within = p.next()
		}
		if err := p.expect("{"); err != nil {
			return err
		}
		for p.peek() != "}" {
			key := p.next()
			val := p.next()
			if err := p.expect(";"); err != nil {
				return err
			}
			switch key {
			case "size":
				n, err := parseSize(val)
				if err != nil {
					return err
				}
				m.Size = n
			case "coalescing":
				m.Coalescing = val == "required"
			default:
				return fmt.Errorf("unknown memory key %q", key)
			}
		}
		p.next()
		l.Mem[m.Name] = m
		return nil
	case "map":
		src := p.next()
		var dst []string
		for p.peek() != ";" {
			if p.eof() {
				return fmt.Errorf("unterminated map clause")
			}
			dst = append(dst, p.next())
		}
		p.next() // ;
		if len(dst) == 0 {
			return fmt.Errorf("map %s has no targets", src)
		}
		l.Mappings[src] = dst
		return nil
	case "property":
		key := p.next()
		val := p.next()
		if err := p.expect(";"); err != nil {
			return err
		}
		l.Props[key] = val
		return nil
	default:
		return fmt.Errorf("unknown clause %q", kw)
	}
}
