package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profile runtime/pprof writes (gzipped
// profile.proto) far enough to attribute self CPU time to modules. Only
// the fields the attribution needs are read: samples (location ids and
// values), locations (their line -> function ids), functions (name string
// index) and the string table.

// profile is the decoded subset of a pprof profile.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes a gzipped or raw profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 2 && wire == 2: // sample
			return p.parseSample(b)
		case field == 4 && wire == 2: // location
			return p.parseLocation(b)
		case field == 5 && wire == 2: // function
			return p.parseFunction(b)
		case field == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *profile) parseSample(b []byte) error {
	var s profSample
	var values []uint64
	err := eachField(b, func(field, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			return appendUints(&s.locs, wire, v, sub)
		case 2:
			return appendUints(&values, wire, v, sub)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(values) > 0 {
		s.value = int64(values[len(values)-1])
	}
	p.samples = append(p.samples, s)
	return nil
}

func (p *profile) parseLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(field, wire int, v uint64, sub []byte) error {
		switch {
		case field == 1 && wire == 0:
			id = v
		case field == 4 && wire == 2: // line
			return eachField(sub, func(f, w int, v uint64, _ []byte) error {
				if f == 1 && w == 0 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	p.locations[id] = fns
	return err
}

func (p *profile) parseFunction(b []byte) error {
	var id uint64
	var name int64
	err := eachField(b, func(field, wire int, v uint64, _ []byte) error {
		switch {
		case field == 1 && wire == 0:
			id = v
		case field == 2 && wire == 0:
			name = int64(v)
		}
		return nil
	})
	p.functions[id] = name
	return err
}

// stack returns a sample's function names, leaf first (inlined frames
// expanded).
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// gcFrames mark a sample as garbage-collector work wherever they appear
// in its stack; mallocFrames mark it as allocation when its leaf is in
// the runtime.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.wbBufFlush",
	}
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.newarray",
		"runtime.rawstring", "runtime.rawbyteslice", "runtime.concatstring",
	}
)

// moduleOf attributes one sample's stack (leaf first) to a cpuModules
// bucket. Collector work goes to runtime_gc and allocation to
// runtime_malloc, wherever they are called from. Otherwise the sample
// belongs to the innermost frame in a crystalnet/internal package or in
// encoding/json or net/http, so map lookups and copies count toward the
// module that asked for them; a crystalnet package without a bucket, or a
// stack with no such frame, is "other".
func moduleOf(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime_gc"
			}
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		for _, f := range stack {
			for _, m := range mallocFrames {
				if f == m {
					return "runtime_malloc"
				}
			}
		}
	}
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f, "crystalnet/internal/"):
			pkg := strings.TrimPrefix(f, "crystalnet/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, m := range cpuModules {
				if m == pkg {
					return m
				}
			}
			return "other"
		case strings.HasPrefix(f, "encoding/json."):
			return "encoding_json"
		case strings.HasPrefix(f, "net/http."):
			return "net_http"
		}
	}
	return "other"
}

// cpuShares returns every cpuModules bucket's share of the profile's CPU
// time, in percent (all 0 for an empty profile).
func (p *profile) cpuShares() map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		by[moduleOf(p.stack(s))] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for _, m := range cpuModules {
		if total > 0 {
			out[m] = 100 * float64(by[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out
}

// eachField walks the top-level fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errBadProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errBadProto
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errBadProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errBadProto
			}
			data = data[4:]
		default:
			return errBadProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// appendUints appends one repeated-uint64 field occurrence, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
