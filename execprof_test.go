package cepheus

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Executor profiling promises byte-level neutrality: Options.Profile reads
// the wall clock only in executor host code, so enabling it must change
// nothing simulated — not the digest, not a single trace byte — at any
// worker count. These tests are that promise's acceptance gate.

// profWorkload runs the digest-equivalence workload on the partitioned
// coordinator with profiling on or off and returns the simulated digest, the
// canonical trace serialization cut at a fixed horizon, and the profile
// report (nil when off).
func profWorkload(t *testing.T, seed int64, workers int, profile bool) (simDigest, []byte, *obs.ExecReport) {
	t.Helper()
	c := NewFatTree(8, Options{Seed: seed, Workers: workers, Profile: profile})
	defer c.Close()
	rec := c.EnableTrace(1 << 20)
	members := make([]int, 16)
	for i := range members {
		members[i] = i * 8
	}
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	jct, err := c.RunBcastErr(b, 0, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 60 * sim.Millisecond
	c.SettleUntil(horizon)
	evs := rec.EventsUntil(horizon)
	if rec.Lost() != 0 {
		t.Fatalf("flight recorder overflowed (lost %d)", rec.Lost())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	d := simDigest{jct: jct, metrics: c.Metrics().String()}
	for _, r := range c.RNICs {
		d.retrans += r.Stats.Retransmits
	}
	return d, buf.Bytes(), c.ExecProfile()
}

// TestProfileDigestTraceNeutral: with the partitioned coordinator's
// canonical serialization, the unprofiled workers=1 run is the reference;
// profiled runs at workers {1,2,4,8} must reproduce its digest and its trace
// byte-for-byte, while still yielding a populated profile report.
func TestProfileDigestTraceNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mode fat-tree sweeps in -short mode")
	}
	const seed = 1
	refD, refTrace, refProf := profWorkload(t, seed, 1, false)
	if refProf != nil {
		t.Fatalf("ExecProfile non-nil with profiling off: %+v", refProf)
	}
	for _, w := range []int{1, 2, 4, 8} {
		d, trace, prof := profWorkload(t, seed, w, true)
		if d != refD {
			t.Errorf("workers=%d profiled: digest diverged:\n  ref: %+v\n  got: %+v", w, refD, d)
		}
		if !bytes.Equal(trace, refTrace) {
			t.Errorf("workers=%d profiled: trace diverged from unprofiled reference (%d vs %d bytes)",
				w, len(trace), len(refTrace))
		}
		if prof == nil {
			t.Fatalf("workers=%d: ExecProfile = nil with Options.Profile set", w)
		}
		if prof.TotalEvents == 0 || prof.Windows == 0 || len(prof.Workers_) == 0 {
			t.Errorf("workers=%d: profile report empty: events=%d windows=%d workers=%d",
				w, prof.TotalEvents, prof.Windows, len(prof.Workers_))
		}
		var lpSum uint64
		for _, ph := range prof.Workers_ {
			lpSum += ph.Events
		}
		if lpSum != prof.TotalEvents {
			t.Errorf("workers=%d: per-worker events sum %d != total %d", w, lpSum, prof.TotalEvents)
		}
	}
}
