package cepheus

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Group attribution promises byte-level neutrality: it books per-group
// counters on host-side shards and nothing else, so enabling it must change
// nothing simulated — not the digest, not a single trace byte — at any
// worker count. These tests are that promise's acceptance gate, plus the
// determinism contract on the attribution itself: the merged snapshot must
// be identical at every worker count.

// groupWorkload is the traced k=8 equivalence workload with group
// attribution on or off; it returns the digest, the trace, and the group
// snapshot (nil when attribution is off).
func groupWorkload(t *testing.T, seed int64, workers int, groups bool) (d simDigest, trace []byte, snap []obs.GroupReport) {
	t.Helper()
	var setup func(*Cluster)
	if groups {
		setup = func(c *Cluster) { c.EnableGroupStats(0) }
	}
	inspect := func(c *Cluster, _ []obs.Event) { snap = c.GroupReports() }
	d, trace = k8Workload(seed, workers, false).traced(t, 1<<20, setup, inspect)
	return d, trace, snap
}

// TestGroupStatsDigestTraceNeutral: the unattributed workers=1 run is the
// reference; attributed runs at workers {1,2,4,8} must reproduce its digest
// and its trace byte-for-byte, while yielding a populated — and worker-count
// independent — group snapshot.
func TestGroupStatsDigestTraceNeutral(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-mode fat-tree sweeps in -short mode")
	}
	const seed = 1
	refD, refTrace, refSnap := groupWorkload(t, seed, 1, false)
	if refSnap != nil {
		t.Fatalf("GroupReports non-nil with attribution off: %d groups", len(refSnap))
	}
	var snap1 []obs.GroupReport
	for _, w := range []int{1, 2, 4, 8} {
		d, trace, snap := groupWorkload(t, seed, w, true)
		if d != refD {
			t.Errorf("workers=%d attributed: digest diverged:\n  ref: %+v\n  got: %+v", w, refD, d)
		}
		if !bytes.Equal(trace, refTrace) {
			t.Errorf("workers=%d attributed: trace diverged from unattributed reference (%d vs %d bytes)",
				w, len(trace), len(refTrace))
		}
		if len(snap) != 1 {
			t.Fatalf("workers=%d: got %d groups, want 1", w, len(snap))
		}
		r := &snap[0]
		if r.Group < obs.GroupAddrBase {
			t.Errorf("workers=%d: group %#x below multicast base", w, r.Group)
		}
		// 15 receivers (every member but the root) each accept the full
		// 256 KiB message.
		if want := uint64(15); r.Messages != want {
			t.Errorf("workers=%d: messages = %d, want %d", w, r.Messages, want)
		}
		if want := int64(15 * (256 << 10)); r.DeliveredBytes != want {
			t.Errorf("workers=%d: delivered bytes = %d, want %d", w, r.DeliveredBytes, want)
		}
		if r.Latency.Count != r.Messages || r.Latency.P99 <= 0 {
			t.Errorf("workers=%d: latency summary inconsistent: %+v", w, r.Latency)
		}
		if len(r.Series) == 0 {
			t.Errorf("workers=%d: empty goodput series", w)
		}
		var serBytes int64
		for _, p := range r.Series {
			serBytes += p.Bytes
		}
		if serBytes != r.DeliveredBytes {
			t.Errorf("workers=%d: series bytes %d != delivered bytes %d", w, serBytes, r.DeliveredBytes)
		}
		if w == 1 {
			snap1 = snap
		} else if !reflect.DeepEqual(snap, snap1) {
			t.Errorf("workers=%d: group snapshot diverged from workers=1", w)
		}
	}
}

// TestEnableGroupStatsIdempotent: enabling twice returns the same registry.
func TestEnableGroupStatsIdempotent(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{Seed: 1})
	defer c.Close()
	gs := c.EnableGroupStats(0)
	if gs == nil || c.EnableGroupStats(sim.Millisecond) != gs {
		t.Fatal("EnableGroupStats not idempotent")
	}
	if c.GroupStats() != gs {
		t.Fatal("GroupStats() != registry returned by EnableGroupStats")
	}
}

// TestGroupStatsSLOEndToEnd: a testbed broadcast with a declared objective
// produces an evaluable SLO report — generous targets hold (no breach), an
// impossible delivery target breaches with a non-empty deterministic
// timeline.
func TestGroupStatsSLOEndToEnd(t *testing.T) {
	t.Parallel()
	run := func(obj obs.SLOObjective) []obs.SLOResult {
		c := NewTestbed(8, Options{Seed: 1})
		defer c.Close()
		gs := c.EnableGroupStats(0)
		gs.SetDefaultObjective(obj)
		b, err := c.Broadcaster(SchemeCepheus, []int{0, 1, 2, 3, 4, 5, 6, 7}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunBcastErr(b, 0, 64<<10); err != nil {
			t.Fatal(err)
		}
		c.SettleUntil(10 * sim.Millisecond)
		return obs.EvalSLOs(c.GroupReports(), gs.ObjectiveFor, obs.SLOWindows{})
	}
	easy := run(obs.SLOObjective{DeliveryP99: sim.Second, DropBudget: 0.5})
	if len(easy) != 2 {
		t.Fatalf("easy: got %d results, want 2 (delivery + drop)", len(easy))
	}
	for _, r := range easy {
		if r.Breached() {
			t.Errorf("easy objective %s breached: %+v", r.Objective, r.Breaches)
		}
	}
	hard := run(obs.SLOObjective{DeliveryP99: 1}) // 1ns: every message is slow
	if len(hard) != 1 {
		t.Fatalf("hard: got %d results, want 1", len(hard))
	}
	if !hard[0].Breached() {
		t.Fatalf("1ns delivery objective did not breach: %+v", hard[0])
	}
	if hard[0].PeakShortBurn < 1 {
		t.Errorf("hard: peak short burn %.2f, want >= 1", hard[0].PeakShortBurn)
	}
	again := run(obs.SLOObjective{DeliveryP99: 1})
	if !reflect.DeepEqual(hard, again) {
		t.Errorf("breach timeline not deterministic:\n  first: %+v\n  again: %+v", hard, again)
	}
}
