package cepheus

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// Executor profiling promises byte-level neutrality: Options.Profile reads
// the wall clock only in executor host code, so enabling it must change
// nothing simulated — not the digest, not a single trace byte — at any
// worker count. These tests are that promise's acceptance gate.

// profWorkload is the traced k=8 equivalence workload with profiling on or
// off; it returns the digest, the trace, and the profile report (nil when
// off).
func profWorkload(t *testing.T, seed int64, workers int, profile bool) (d simDigest, trace []byte, prof *obs.ExecReport) {
	t.Helper()
	w := k8Workload(seed, workers, false)
	w.opts.Profile = profile
	d, trace = w.traced(t, 1<<20, nil, func(c *Cluster, _ []obs.Event) { prof = c.ExecProfile() })
	return d, trace, prof
}

// TestProfileDigestTraceNeutral: with the partitioned coordinator's
// canonical serialization, the unprofiled workers=1 run is the reference;
// profiled runs at workers {1,2,4,8} must reproduce its digest and its trace
// byte-for-byte, while still yielding a populated profile report.
func TestProfileDigestTraceNeutral(t *testing.T) {
	t.Parallel()
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
