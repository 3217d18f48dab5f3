package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// attribute adds the CPU time of a runtime/pprof CPU profile to buckets,
// in milliseconds, by module:
//
//   - a sample on a garbage-collector stack (background marking, sweeping,
//     scavenging, mutator assists, write-barrier flushes) goes to "go.gc";
//   - any other sample goes to the module of its innermost frame in the
//     simulator's own packages, so runtime and standard-library work (maps,
//     allocation, channel operations) counts against the module that asked
//     for it;
//   - a sample with no simulator frame goes to "go.sched" when it runs in
//     the runtime (scheduler, idle spinning) and to "other" otherwise (the
//     benchmark harness itself, the standard library);
//   - samples in the calibration probe (see probe) are left out.
func attribute(data []byte, buckets map[string]float64) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var frames []pfunc
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				frames = append(frames, p.funcs[fid])
			}
		}
		if b := bucketOf(frames, p.strings); b != "" {
			buckets[b] += float64(s.cpuNs) / 1e6
		}
	}
	return nil
}

// gcPrefixes identify garbage-collector frames.
var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
	"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*gcControllerState)",
}

// bucketOf names the bucket of one sample's frames (innermost first), or
// "" for the benchmark's own calibration probe, which is not simulator work.
func bucketOf(frames []pfunc, strs []string) string {
	for _, f := range frames {
		name := strs[f.name]
		if name == "main.probe" {
			return ""
		}
		for _, p := range gcPrefixes {
			if strings.HasPrefix(name, p) {
				return "go.gc"
			}
		}
	}
	for _, f := range frames {
		if m := moduleOf(strs[f.name], strs[f.file]); m != "" {
			if slices.Contains(selfBuckets, m) {
				return m
			}
			return "other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(strs[f.name], "runtime.") {
			return "go.sched"
		}
	}
	return "other"
}

// moduleOf maps a function of the simulator to its module: the package
// name, except that the mcl/* helpers other than codegen, mcpl, closure and
// interp share "mcl", and simnet's partitioned scheduler is "pdes".
func moduleOf(name, file string) string {
	rest, ok := strings.CutPrefix(name, "cashmere/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	switch {
	case rest == "simnet" && strings.HasSuffix(file, "/partition.go"):
		return "pdes"
	case strings.HasPrefix(rest, "mcl/"):
		switch pkg := rest[len("mcl/"):]; pkg {
		case "codegen", "mcpl", "closure", "interp":
			return pkg
		}
		return "mcl"
	}
	return rest
}

// The minimal subset of the pprof profile.proto format the attribution
// needs: samples (location ids, values), locations (inlined function ids,
// innermost first), functions (name and file as string-table indices) and
// the string table.

type pfunc struct{ name, file int }

type psample struct {
	locs  []uint64
	cpuNs int64
}

type profile struct {
	strings []string
	funcs   map[uint64]pfunc
	locs    map[uint64][]uint64
	samples []psample
}

func parseProfile(data []byte) (*profile, error) {
	if len(data) == 0 {
		return nil, errors.New("empty profile")
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{funcs: map[uint64]pfunc{}, locs: map[uint64][]uint64{}}
	var sampleTypes [][]byte
	var samples [][]byte
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			samples = append(samples, b)
		case 4:
			return p.addLocation(b)
		case 5:
			return p.addFunction(b)
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU-time value is the sample type named "cpu" (the other one
	// counts samples).
	valueIdx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		_ = walk(st, func(num int, v uint64, _ []byte) error {
			if num == 1 && int(v) < len(p.strings) && p.strings[v] == "cpu" {
				valueIdx = i
			}
			return nil
		})
	}
	for _, b := range samples {
		var s psample
		var values []uint64
		err := walk(b, func(num int, v uint64, packed []byte) error {
			switch num {
			case 1:
				return appendVarints(&s.locs, v, packed)
			case 2:
				return appendVarints(&values, v, packed)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valueIdx >= 0 && valueIdx < len(values) {
			s.cpuNs = int64(values[valueIdx])
		}
		p.samples = append(p.samples, s)
	}
	for _, f := range p.funcs {
		if f.name >= len(p.strings) || f.file >= len(p.strings) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

func (p *profile) addLocation(b []byte) error {
	var id uint64
	var fids []uint64
	err := walk(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // Line{function_id = 1, line = 2}
			return walk(sub, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					fids = append(fids, v)
				}
				return nil
			})
		}
		return nil
	})
	p.locs[id] = fids
	return err
}

func (p *profile) addFunction(b []byte) error {
	var id uint64
	var f pfunc
	err := walk(b, func(num int, v uint64, _ []byte) error {
		switch num {
		case 1:
			id = v
		case 2:
			f.name = int(v)
		case 4:
			f.file = int(v)
		}
		return nil
	})
	p.funcs[id] = f
	return err
}

// walk calls fn for every field of a protobuf message: the value of a
// varint field, or the bytes of a length-delimited one.
func walk(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's value: one value when it
// was encoded unpacked, all of them when packed.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
