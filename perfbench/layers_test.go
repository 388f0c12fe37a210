package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/simnet.(*Port).onArrive":                            "simnet",
		"repro/internal/sim.(*Engine).Step":                                 "sim",
		"repro/internal/sim.(*Engine).siftDown":                             "sim",
		"sync.(*Pool).Get":                                                  "pool",
		"sync.(*poolChain).popHead":                                         "pool",
		"sync.runtime_procPin":                                              "pool",
		"repro/internal/simnet.NewPacket":                                   "pool",
		"repro/internal/simnet.(*Packet).Release":                           "pool",
		"runtime.mallocgc":                                                  "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                            "runtime",
		"repro/internal/core.(*Accel).Handle":                               "core",
		"repro/internal/roce.(*QP).ingest":                                  "roce",
		"repro/internal/amcast.Binomial.Bcast.func3":                        "amcast",
		"repro/internal/obs.(*Fabric).Inc":                                  "obs",
		"repro.(*Cluster).RunBcastErr":                                      "other",
		"sync.(*Mutex).Lock":                                                "other",
		"slices.pdqsortCmpFunc[go.shape.struct { a/b.c int }]":              "other",
		"repro/internal/obs.sortBy[go.shape.*repro/internal/simnet.Packet]": "obs",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pb) uint(field int, v uint64) { b.varint(uint64(field)<<3 | 0); b.varint(v) }

func (b *pb) bytes(field int, data []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pb) msg(field int, build func(m *pb)) {
	var m pb
	build(&m)
	b.bytes(field, m.Bytes())
}

func (b *pb) packed(field int, vs ...uint64) {
	var m pb
	for _, v := range vs {
		m.varint(v)
	}
	b.bytes(field, m.Bytes())
}

// syntheticProfile builds a CPU profile with one sample per location. Each
// location is a list of function names, innermost inlined call first.
func syntheticProfile(t *testing.T, locs [][]string, nanos []uint64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	p.msg(1, func(m *pb) { m.uint(1, 1); m.uint(2, 2) })
	p.msg(1, func(m *pb) { m.uint(1, 3); m.uint(2, 4) })
	fid := uint64(0)
	for i, names := range locs {
		locID := uint64(i + 1)
		var lines [][]byte
		for _, n := range names {
			fid++
			id, name := fid, intern(n)
			p.msg(5, func(m *pb) { m.uint(1, id); m.uint(2, name) })
			var ln pb
			ln.uint(1, id)
			ln.uint(2, 42)
			lines = append(lines, ln.Bytes())
		}
		p.msg(4, func(m *pb) {
			m.uint(1, locID)
			for _, ln := range lines {
				m.bytes(4, ln)
			}
		})
		// Alternate the two encodings of repeated integers.
		if i%2 == 0 {
			p.msg(2, func(m *pb) { m.packed(1, locID, 999); m.packed(2, 1, nanos[i]) })
		} else {
			p.msg(2, func(m *pb) { m.uint(1, locID); m.uint(1, 999); m.uint(2, 1); m.uint(2, nanos[i]) })
		}
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldProfileChargesLeafPackage(t *testing.T) {
	prof := syntheticProfile(t, [][]string{
		{"repro/internal/simnet.(*Port).onArrive"},
		{"sync.(*Pool).Get"},
		{"runtime.mallocgc"},
		// NewPacket inlined into a simnet caller: the innermost inlined
		// function is the leaf, so the sample is pool time.
		{"repro/internal/simnet.NewPacket", "repro/internal/simnet.(*Switch).replicate"},
		// And a core function inlined into a sim frame belongs to core.
		{"repro/internal/core.(*MFT).lookup", "repro/internal/sim.(*Engine).Step"},
	}, []uint64{10e6, 20e6, 30e6, 40e6, 50e6})
	got, err := foldProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"simnet": 10e6, "pool": 60e6, "runtime": 30e6, "core": 50e6}
	if got.Samples != 5 {
		t.Errorf("samples = %d, want 5", got.Samples)
	}
	for l, ns := range want {
		if got.Nanos[l] != ns {
			t.Errorf("%s = %dns, want %d", l, got.Nanos[l], ns)
		}
	}
	if len(got.Nanos) != len(want) {
		t.Errorf("layers = %v, want exactly %v", got.Nanos, want)
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip input folded without error")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x40, 0x01}) // field 2 claims 64 bytes, has 1
	zw.Close()
	if _, err := foldProfile(gz.Bytes()); err == nil {
		t.Error("truncated profile folded without error")
	}
}

// TestFoldRealProfile folds a profile the runtime wrote, so the decoder is
// checked against the real encoder and not only the synthetic one.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	x := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1e5; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	sink = x
	got, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range got.Nanos {
		total += ns
	}
	if got.Samples > 0 && total <= 0 {
		t.Errorf("%d samples but no CPU time", got.Samples)
	}
}

var sink int
