package cepheus

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Group attribution promises byte-level neutrality: it books per-group
// counters host-side and nothing else, so enabling it must change nothing
// simulated — not the digest, not a single trace byte.

// groupWorkload is the traced k=8 workload with group attribution on or
// off; it returns the digest, the trace, and the group snapshot (nil when
// attribution is off).
func groupWorkload(t *testing.T, seed int64, groups bool) (d simDigest, trace []byte, snap []obs.GroupReport) {
	t.Helper()
	var setup func(*Cluster)
	if groups {
		setup = func(c *Cluster) { c.EnableGroupStats(0) }
	}
	inspect := func(c *Cluster, _ []obs.Event) { snap = c.GroupReports() }
	d, trace = k8Workload(seed).traced(t, 1<<20, setup, inspect)
	return d, trace, snap
}

// TestGroupStatsDigestTraceNeutral: the unattributed run is the reference;
// the attributed run must reproduce its digest and its trace byte-for-byte,
// while yielding a populated group snapshot.
func TestGroupStatsDigestTraceNeutral(t *testing.T) {
	t.Parallel()
	const seed = 1
	refD, refTrace, refSnap := groupWorkload(t, seed, false)
	if refSnap != nil {
		t.Fatalf("GroupReports non-nil with attribution off: %d groups", len(refSnap))
	}
	d, trace, snap := groupWorkload(t, seed, true)
	if d != refD {
		t.Errorf("attributed digest diverged:\n  ref: %+v\n  got: %+v", refD, d)
	}
	if !bytes.Equal(trace, refTrace) {
		t.Errorf("attributed trace diverged from unattributed reference (%d vs %d bytes)", len(trace), len(refTrace))
	}
	if len(snap) != 1 {
		t.Fatalf("got %d groups, want 1", len(snap))
	}
	r := &snap[0]
	if r.Group < obs.GroupAddrBase {
		t.Errorf("group %#x below multicast base", r.Group)
	}
	// 15 receivers (every member but the root) each accept the full
	// 256 KiB message.
	if want := uint64(15); r.Messages != want {
		t.Errorf("messages = %d, want %d", r.Messages, want)
	}
	if want := int64(15 * (256 << 10)); r.DeliveredBytes != want {
		t.Errorf("delivered bytes = %d, want %d", r.DeliveredBytes, want)
	}
	if r.Latency.Count != r.Messages || r.Latency.P99 <= 0 {
		t.Errorf("latency summary inconsistent: %+v", r.Latency)
	}
	if len(r.Series) == 0 {
		t.Error("empty goodput series")
	}
	var serBytes int64
	for _, p := range r.Series {
		serBytes += p.Bytes
	}
	if serBytes != r.DeliveredBytes {
		t.Errorf("series bytes %d != delivered bytes %d", serBytes, r.DeliveredBytes)
	}
}

// TestEnableGroupStatsIdempotent: enabling twice returns the same registry.
func TestEnableGroupStatsIdempotent(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{Seed: 1})
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
