package cepheus

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestDeliveryLatencySanity checks the always-on latency histograms: a
// completed broadcast must record one observation per accepted data packet
// at each receiver, with quantiles bounded by physical limits.
func TestDeliveryLatencySanity(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{Seed: 1})
	b, err := c.Broadcaster(SchemeCepheus, []int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	jct, err := c.RunBcastErr(b, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(c.Now() + sim.Millisecond)
	s := c.DeliveryLatency()
	if s.Count == 0 {
		t.Fatal("no delivery latency observations after a completed broadcast")
	}
	if s.Min <= 0 {
		t.Fatalf("delivery latency min %d must be positive (propagation alone is nonzero)", s.Min)
	}
	if s.Max > int64(jct) {
		t.Fatalf("delivery latency max %d exceeds the whole JCT %d", s.Max, jct)
	}
	if s.P50 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantiles not monotone: %v", s)
	}
	q := c.QueueDepth()
	if q.Count == 0 || q.Max <= 0 {
		t.Fatalf("queue-depth histogram empty after traffic: %v", q)
	}
}

// TestGroupDeliveryLatency checks the per-group histogram merge.
func TestGroupDeliveryLatency(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{Seed: 1})
	g, err := c.NewGroup([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var done bool
	g.Members[0].QP.PostSend(32<<10, func() { done = true })
	if err := c.Run(sim.MaxTime, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(c.Now() + sim.Millisecond)
	gs := g.DeliveryLatency()
	cs := c.DeliveryLatency()
	if gs.Count == 0 || gs != cs {
		t.Fatalf("group summary %+v differs from cluster summary %+v (single group)", gs, cs)
	}
}

// TestHistogramsWorkerInvariant: the histograms — queue depth from the
// fabric, delivery and message latency from the QPs — and the group reports
// of the k=8 workload are non-empty and identical on a second run. The name
// dates from when the comparison was across worker counts; one engine is
// left.
func TestHistogramsWorkerInvariant(t *testing.T) {
	t.Parallel()
	type views struct {
		queue, delivery, message obs.Summary
		groups                   []obs.GroupReport
	}
	run := func() views {
		w := k8Workload(1)
		c := NewFatTree(w.k, w.opts)
		c.EnableGroupStats(0)
		if _, err := c.RunBcastErr(w.group(t, c), w.members[0], 256<<10); err != nil {
			t.Fatal(err)
		}
		c.SettleUntil(traceHorizon)
		return views{c.QueueDepth(), c.DeliveryLatency(), c.MessageLatency(), c.GroupReports()}
	}
	ref := run()
	if ref.queue.Count == 0 || ref.delivery.Count == 0 || ref.message.Count == 0 || len(ref.groups) != 1 {
		t.Fatalf("workload left a view empty: %+v", ref)
	}
	if got := run(); !reflect.DeepEqual(got, ref) {
		t.Errorf("second run's views diverged:\n  ref: %+v\n  got: %+v", ref, got)
	}
}

// TestTraceSeqParEquivalence: the traced k=8 workload at seeds 1-3 writes
// byte-identical JSONL and the same digest on a second run. The name dates
// from when the comparison was between the sequential engine and the
// partitioned executor; one engine is left.
func TestTraceSeqParEquivalence(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		refDigest, ref := k8Workload(seed).traced(t, 1<<20, nil, nil)
		d, got := k8Workload(seed).traced(t, 1<<20, nil, nil)
		if d != refDigest {
			t.Errorf("seed %d: second run's digest diverged:\n  ref: %+v\n  got: %+v", seed, refDigest, d)
		}
		if !bytes.Equal(ref, got) {
			t.Errorf("seed %d: second run's trace diverges (%d vs %d bytes)", seed, len(got), len(ref))
		}
	}
}
