package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiler collects CPU profiles around the measured phase of traced
// repetitions and charges their samples to layers.
type profiler struct {
	buf     bytes.Buffer
	selfNS  map[string]int64 // layer -> CPU nanoseconds
	samples int64
	totalNS int64
}

func newProfiler() *profiler { return &profiler{selfNS: map[string]int64{}} }

func (pr *profiler) start() error {
	pr.buf.Reset()
	return pprof.StartCPUProfile(&pr.buf)
}

// stop ends the profile and adds its samples to the per-layer totals.
func (pr *profiler) stop() error {
	pprof.StopCPUProfile()
	return pr.attribute(pr.buf.Bytes())
}

const modulePrefix = "hpbd/internal/"

// layerOf names the layer a stack is charged to: the innermost frame in
// an hpbd/internal/<module> package. Runtime and standard-library frames
// count toward their hpbd caller; a stack with no hpbd frame is the
// benchmark's own ("bench") when it passes through package main, and
// "runtime" otherwise (GC workers, the scheduler, profiling itself).
func layerOf(frames []string) string {
	inMain := false
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") {
			inMain = true
		}
	}
	if inMain {
		return "bench"
	}
	return "runtime"
}

// attribute decodes one gzipped profile.proto CPU profile and charges
// each sample's CPU time to layerOf its stack.
func (pr *profiler) attribute(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	count, cpu := -1, -1
	for i, vt := range p.sampleTypes {
		switch p.str(vt) {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return errors.New("profile: no samples/cpu sample types")
	}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				frames = append(frames, p.str(p.funcs[fid]))
			}
		}
		if len(s.values) != len(p.sampleTypes) {
			return errors.New("profile: sample has the wrong number of values")
		}
		ns := s.values[cpu]
		pr.selfNS[layerOf(frames)] += ns
		pr.totalNS += ns
		pr.samples += s.values[count]
	}
	return nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	sampleTypes []int64 // string index of each value's type
	samples     []sample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> string index of its name
	strs        []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := walk(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case fProfileSampleType:
			var typ int64
			err := walk(sub, func(f int, v uint64, _ []byte) error {
				if f == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s sample
			err := walk(sub, func(f int, v uint64, packed []byte) error {
				switch f {
				case fSampleLocation:
					return varints(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(sub, func(f int, v uint64, line []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(line, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walk(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case fProfileStrings:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// walk calls fn for each field of a protobuf message: v is the value of a
// varint field, sub the payload of a length-delimited one. Fixed-width
// fields, which profile.proto does not use, are skipped.
func walk(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated integer field, whether the encoder wrote it
// as one varint (packed == nil) or packed into a length-delimited run.
func varints(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
