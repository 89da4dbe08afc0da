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

// The CPU profile is attributed two ways. By stage: each sample goes to
// the first frame, walking from the goroutine's root towards the leaf,
// that names a known pipeline or load goroutine. By package: each sample
// goes to the package of its leaf frame.

// stageRules maps function-name prefixes to stages, in match order.
var stageRules = []struct{ prefix, stage string }{
	{"cjoin/internal/core.(*preprocessor).", "preprocessor"},
	{"cjoin/internal/core.(*Pipeline).startStage", "filter"},
	{"cjoin/internal/core.(*distributor).", "distributor"},
	{"cjoin/internal/core.(*Pipeline).managerLoop", "dispatch"},
	{"cjoin/internal/admission.", "dispatch"},
	{"cjoin/internal/shard.", "dispatch"},
	{"main.(*writer).", "writer"},
	{"runtime.main", "driver"},
	{"runtime.gcBgMarkWorker", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.bgscavenge", "gc"},
	{"runtime._GC", "gc"},
}

// stages lists every stage reported, "other" last.
var stages = []string{"preprocessor", "filter", "distributor", "dispatch", "driver", "writer", "gc", "other"}

// pkgs lists every leaf package reported, "other" last.
var pkgs = []string{"storage", "expr", "agg", "dimht", "bitvec", "dimplane", "query", "sql",
	"admission", "txn", "core", "shard", "runtime", "other"}

func stageOf(rootFirst []string) string {
	for _, fn := range rootFirst {
		for _, r := range stageRules {
			if strings.HasPrefix(fn, r.prefix) {
				return r.stage
			}
		}
	}
	return "other"
}

func pkgOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "cjoin/internal/"); ok {
		p, _, _ := strings.Cut(rest, ".")
		p, _, _ = strings.Cut(p, "/")
		for _, k := range pkgs {
			if k == p {
				return p
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/") {
		return "runtime"
	}
	return "other"
}

// cpuShares is a CPU profile reduced to the benchmark's attribution.
type cpuShares struct {
	// busy and wall are the profile's sampled CPU time and duration, ns.
	busy, wall int64
	stage      map[string]int64 // CPU ns by root-frame stage
	pkg        map[string]int64 // CPU ns by leaf-frame package
}

// attribute reduces a gzip-compressed pprof CPU profile.
func attribute(gz []byte) (*cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := &cpuShares{wall: p.duration, stage: map[string]int64{}, pkg: map[string]int64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := s.values[vi]
		// Locations run leaf first; within a location, inlined lines
		// run innermost first.
		var leafFirst []string
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				leafFirst = append(leafFirst, p.str(p.funcNames[fid]))
			}
		}
		if len(leafFirst) == 0 {
			continue
		}
		rootFirst := make([]string, 0, len(leafFirst))
		for i := len(leafFirst) - 1; i >= 0; i-- {
			if leafFirst[i] != "runtime.goexit" {
				rootFirst = append(rootFirst, leafFirst[i])
			}
		}
		out.busy += v
		out.stage[stageOf(rootFirst)] += v
		out.pkg[pkgOf(leafFirst[0])] += v
	}
	return out, nil
}

// profile holds the parts of profile.proto the attribution needs.
type profile struct {
	sampleTypes []int64 // string indices of each value's type
	samples     []sample
	locLines    map[uint64][]uint64 // location id → function ids, innermost first
	funcNames   map[uint64]int64    // function id → name string index
	strings     []string
	duration    int64
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fProfileDuration   = 10
	fValueTypeType     = 1
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(f int, v uint64, sub []byte) error {
		switch f {
		case fProfileSampleType:
			var typ int64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				if f == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s sample
			err := eachField(sub, func(f int, v uint64, packed []byte) error {
				switch f {
				case fSampleLocation:
					return appendVarints(&s.locs, v, packed)
				case fSampleValue:
					var vs []uint64
					if err := appendVarints(&vs, v, packed); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f int, v uint64, line []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(line, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(sub))
		case fProfileDuration:
			p.duration = int64(v)
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, which encoders may
// write packed (one length-delimited run) or as one field per value.
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

// eachField walks one protobuf message. fn receives each field's number
// and either its varint value (sub nil) or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)]
			if sub == nil {
				sub = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}
