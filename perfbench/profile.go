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

// layers names the repository's modules in report order. Every CPU or
// heap sample is charged to exactly one of them.
var layers = []string{
	"machine", "sim", "cpu", "disk", "vol", "driver", "vm", "ufs", "wal",
	"core", "prefetch", "vec", "telemetry", "fault", "faultlab", "iobench",
	"bench", "gc", "runtime",
}

// repoLayer maps a function name from a profile to the repository layer
// that owns it. Helper packages that belong to no layer (detsort, vfs,
// runner, ...) return "" so their caller is charged instead, as are
// runtime and standard-library frames.
func repoLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "ufsclust/internal/"):
		pkg := strings.TrimPrefix(fn, "ufsclust/internal/")
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return ""
	case strings.HasPrefix(fn, "ufsclust."):
		return "machine"
	}
	return ""
}

// foldStack charges one sample, given its frames innermost first, to a
// layer: the innermost repository frame wins, so runtime malloc, memclr
// and channel operations count against the code that caused them.
// Stacks with no repository frame belong to the GC workers or, failing
// that, to the runtime.
func foldStack(frames []string) string {
	gc := false
	for _, fn := range frames {
		if l := repoLayer(fn); l != "" {
			return l
		}
		if fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "runtime"
}

// foldProfile decodes a gzipped pprof profile and sums the sample type
// named valueType (for example "cpu" or "alloc_space") per layer.
func foldProfile(gz []byte, valueType string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	pr, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	idx := -1
	for i, t := range pr.sampleTypes {
		if pr.str(t) == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile: no %q sample type", valueType)
	}
	funcName := make(map[uint64]string, len(pr.funcs))
	for id, nameIdx := range pr.funcs {
		funcName[id] = pr.str(nameIdx)
	}
	out := make(map[string]float64, len(layers))
	var frames []string
	for _, s := range pr.samples {
		if idx >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fid := range pr.locs[loc] {
				frames = append(frames, funcName[fid])
			}
		}
		out[foldStack(frames)] += float64(s.values[idx])
	}
	return out, nil
}

// profile is the subset of the pprof protobuf schema the folding needs:
// sample types, samples, locations (as function-id lists, innermost
// inlined frame first) and function names.
type profile struct {
	sampleTypes []int64 // string-table index of each ValueType.type
	samples     []sample
	locs        map[uint64][]uint64
	funcs       map[uint64]int64 // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of perftools.profiles.Profile and its nested messages.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case profSampleType:
			var typ int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s sample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return packedOr(d, v, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packedOr(d, v, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; pprof uses none the folding reads.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
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
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packedOr decodes a repeated varint field, which the encoder may write
// packed (data != nil) or as one value per field occurrence.
func packedOr(data []byte, v uint64, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}
