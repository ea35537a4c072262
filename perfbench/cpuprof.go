package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file splits a runtime/pprof CPU profile by layer without the pprof
// tool: it decodes the handful of profile.proto fields it needs (samples,
// locations, functions, the string table) and charges each sample to the
// package of its leaf frame, after folding standard-library frames into
// their caller (see layerOf).

// cpuLayers are the cpu.* metric suffixes, in report order.
var cpuLayers = []string{
	"sim", "disk", "array", "raid", "core", "baseline", "intervals", "logspace",
	"trace", "metrics", "telemetry", "journal", "invariant", "fleet", "gc", "other",
}

const modulePrefix = "github.com/rolo-storage/rolo/internal/"

// gcRoots mark a sample as allocation or garbage-collection work when any
// frame of its stack starts with one of them, whatever its leaf is.
var gcRoots = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.gcDrain", "runtime.sweepone",
	"runtime.deductSweepCredit", "runtime.(*mheap).alloc",
}

// layerOf maps a stack, leaf first, to its cpu.* layer: the layer of the
// innermost frame in one of the module's packages, so standard-library
// and runtime code (sorting, copying, formatting) counts toward the layer
// that called it. Frames of the benchmark itself or of the root package
// stop the walk and count as other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		switch {
		case strings.HasPrefix(pkg, "compress/"), pkg == "hash/crc32":
			return "journal" // journal segment compression and checksums
		case strings.HasPrefix(pkg, modulePrefix):
			rest := strings.TrimPrefix(pkg, modulePrefix)
			if rest == "telemetry/journal" {
				return "journal"
			}
			first, _, _ := strings.Cut(rest, "/")
			for _, l := range cpuLayers {
				if l == first {
					return l
				}
			}
			return "other"
		case pkg != "main" && !strings.Contains(pkg, "."):
			continue // standard library or runtime: charge the caller
		default:
			return "other"
		}
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "github.com/x/y/internal/sim.(*Engine).siftDown" or "runtime.memmove".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares decodes a gzipped CPU profile and returns each layer's share
// of sampled CPU time and the number of samples.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	by := make(map[string]float64)
	var total float64
	var n int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				if idx := p.funcName[fid]; idx >= 0 && int(idx) < len(p.strings) {
					stack = append(stack, p.strings[idx])
				}
			}
		}
		v := float64(s.value)
		by[layerOf(stack)] += v
		total += v
		n++
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = by[l] / total
		} else {
			out[l] = 0
		}
	}
	return out, n, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds (the last sample value)
}

type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location → function IDs, innermost first
	funcName map[uint64]int64    // function → string-table index
	strings  []string
}

// decodeProfile reads the profile.proto fields cpuShares needs.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch {
		case field == 2 && wire == 2: // Sample
			var s profSample
			var vals []uint64
			err := eachField(sub, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					vals = appendVarints(vals, w, v, d)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case field == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f, w int, v uint64, d []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 && lw == 0 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case field == 5 && wire == 2: // Function
			var id uint64
			name := int64(-1)
			err := eachField(sub, func(f, w int, v uint64, _ []byte) error {
				if w == 0 && f == 1 {
					id = v
				} else if w == 0 && f == 2 {
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case field == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errProto = errors.New("cpu profile: malformed protobuf")

// eachField walks a protobuf message, passing each field's number, wire
// type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning the value and its length
// (0 when truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
