package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers lists the simulator layers a CPU profile is split into, in report
// order. Every sample lands in exactly one of them.
var layers = []string{"sim", "simnet", "pool", "core", "roce", "amcast", "obs", "runtime", "other"}

// layerPkgs maps a package import path to its layer.
var layerPkgs = map[string]string{
	"repro/internal/sim":    "sim",
	"repro/internal/simnet": "simnet",
	"repro/internal/core":   "core",
	"repro/internal/roce":   "roce",
	"repro/internal/amcast": "amcast",
	"repro/internal/obs":    "obs",
}

// funcPackage splits a symbol name as the Go runtime prints it
// ("repro/internal/simnet.(*Port).onArrive", "runtime.mallocgc") into its
// package import path and the rest.
func funcPackage(fn string) (pkg, name string) {
	// Type arguments of a generic instantiation may hold '/' and '.', so
	// look for the package boundary before the first '['.
	head := fn
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return "", fn
	}
	cut := slash + 1 + dot
	return fn[:cut], fn[cut+1:]
}

// layerOf assigns a leaf function to its layer. The packet pool is its own
// layer: sync.Pool's machinery plus simnet's NewPacket and Release wrappers
// around it.
func layerOf(fn string) string {
	pkg, name := funcPackage(fn)
	switch {
	case pkg == "sync" && (strings.Contains(strings.ToLower(name), "pool") ||
		strings.Contains(name, "procPin") || strings.Contains(name, "procUnpin") || name == "indexLocal"):
		return "pool"
	case pkg == "repro/internal/simnet" && (name == "NewPacket" || name == "(*Packet).Release"):
		return "pool"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	if l, ok := layerPkgs[pkg]; ok {
		return l
	}
	return "other"
}

// layerCost is a CPU profile folded by layer: the sample count and CPU
// nanoseconds whose leaf frame belongs to each layer.
type layerCost struct {
	Samples int64
	Nanos   map[string]int64
}

// foldProfile parses a gzipped pprof CPU profile, as runtime/pprof writes
// it, and charges each sample to the layer of its leaf function. For a leaf
// location holding inlined calls that is the innermost inlined function, so
// an inlined NewPacket counts as pool, not as its caller's package.
func foldProfile(gz []byte) (layerCost, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return layerCost{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return layerCost{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return layerCost{}, err
	}
	// The CPU profile's sample values are [samples/count, cpu/nanoseconds].
	countIdx, nanoIdx := -1, -1
	for i, st := range p.sampleTypes {
		switch p.str(st) {
		case "samples":
			countIdx = i
		case "cpu":
			nanoIdx = i
		}
	}
	if countIdx < 0 || nanoIdx < 0 {
		return layerCost{}, errors.New("profile: not a CPU profile (no samples/cpu values)")
	}
	funcName := make(map[uint64]string, len(p.functions))
	for _, f := range p.functions {
		funcName[f.id] = p.str(f.name)
	}
	leafLayer := make(map[uint64]string, len(p.locations))
	for _, l := range p.locations {
		name := "?"
		if len(l.funcIDs) > 0 {
			name = funcName[l.funcIDs[0]]
		}
		leafLayer[l.id] = layerOf(name)
	}
	out := layerCost{Nanos: make(map[string]int64)}
	for _, s := range p.samples {
		if len(s.values) <= nanoIdx || len(s.values) <= countIdx {
			return layerCost{}, errors.New("profile: sample with too few values")
		}
		layer := "other"
		if len(s.locIDs) > 0 {
			if l, ok := leafLayer[s.locIDs[0]]; ok {
				layer = l
			}
		}
		out.Samples += s.values[countIdx]
		out.Nanos[layer] += s.values[nanoIdx]
	}
	return out, nil
}

// The subset of profile.proto (github.com/google/pprof) the fold needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   []location
	functions   []function
	strings     []string
}

type sample struct {
	locIDs []uint64 // leaf first
	values []int64
}

type location struct {
	id      uint64
	funcIDs []uint64 // one per Line; innermost inlined call first
}

type function struct {
	id   uint64
	name int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbReader walks the fields of one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field's number and wire type, with either its
// varint value (wire type 0) or its bytes (wire type 2). Fixed-width fields
// are skipped over and returned with neither.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[n:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

// uints appends a repeated integer field in either encoding: one varint
// (wire type 0) or a packed run (wire type 2).
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pr := pbReader{data}
	for len(pr.b) > 0 {
		x, err := pr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{}
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		if field >= 1 && field <= 6 && wire != 2 {
			return nil, fmt.Errorf("profile: field %d is not length-delimited", field)
		}
		switch field {
		case 1: // sample_type: ValueType{type=1}
			typ, err := fieldUints(data, 1)
			if err != nil {
				return nil, err
			}
			p.sampleTypes = append(p.sampleTypes, int64(first(typ)))
		case 2: // sample: location_id=1, value=2
			locs, err := fieldUints(data, 1)
			if err != nil {
				return nil, err
			}
			vals, err := fieldUints(data, 2)
			if err != nil {
				return nil, err
			}
			s := sample{locIDs: locs}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
		case 4: // location: id=1, line=4
			l, err := decodeLocation(data)
			if err != nil {
				return nil, err
			}
			p.locations = append(p.locations, l)
		case 5: // function: id=1, name=2
			id, err := fieldUints(data, 1)
			if err != nil {
				return nil, err
			}
			name, err := fieldUints(data, 2)
			if err != nil {
				return nil, err
			}
			p.functions = append(p.functions, function{id: first(id), name: int64(first(name))})
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	return p, nil
}

// fieldUints returns every value of integer field n in message b.
func fieldUints(b []byte, n int) ([]uint64, error) {
	var out []uint64
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, v, data, err := r.next()
		if err != nil {
			return nil, err
		}
		if field == n && (wire == 0 || wire == 2) {
			if out, err = uints(out, wire, v, data); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// first returns xs[0], or 0 for a field the message left out (protobuf's
// default).
func first(xs []uint64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}

// decodeLocation reads a Location's id=1 and the function_id=1 of each of
// its Line entries (field 4).
func decodeLocation(b []byte) (location, error) {
	var l location
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, v, data, err := r.next()
		if err != nil {
			return l, err
		}
		switch {
		case field == 1 && wire == 0:
			l.id = v
		case field == 4 && wire == 2:
			fid, err := fieldUints(data, 1)
			if err != nil {
				return l, err
			}
			l.funcIDs = append(l.funcIDs, first(fid))
		}
	}
	return l, nil
}
