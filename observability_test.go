package cepheus

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestMetricsFabricMatchesWalk drives a lossy workload with a crash/restart
// cycle and checks that the sharded fabric counters Metrics() reads agree
// exactly with a walk over every device's private counters.
func TestMetricsFabricMatchesWalk(t *testing.T) {
	t.Parallel()
	c := NewFatTree(4, Options{Seed: 7})
	defer c.Close()
	members := []int{0, 3, 6, 9, 12, 15}
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLossRate(0.01)
	c.SetControlLossRate(0.005)
	if _, err := c.RunBcastErr(b, 0, 512<<10); err != nil {
		t.Fatal(err)
	}
	// Crash a core switch mid-flight of a second transfer, then restart it:
	// exercises crash drops, MFT wipes, unknown-group drops and NACKs.
	sw := c.Net.Switches[len(c.Net.Switches)-1]
	var done bool
	b.Bcast(0, 512<<10, func() { done = true })
	c.SettleUntil(c.Now() + 50*sim.Microsecond)
	sw.Crash()
	c.SettleUntil(c.Now() + 200*sim.Microsecond)
	sw.Restart()
	c.SettleUntil(c.Now() + 5*sim.Millisecond)
	_ = done // the transfer may or may not finish around the crash; irrelevant here
	c.SettleUntil(c.Now() + sim.Millisecond)

	got, want := c.Metrics(), c.metricsWalk()
	if got != want {
		t.Fatalf("fabric metrics diverge from device walk:\n fabric: %+v\n   walk: %+v", got, want)
	}
	if got.DataDrops == 0 || got.CtrlDrops == 0 {
		t.Fatalf("workload did not exercise loss counters: %v", got)
	}
}

// TestHistogramsWorkerInvariant: the merged histograms — queue depth from
// the per-LP fabric shards, delivery and message latency from the QPs — and
// the group reports are identical whether the fabric runs as one LP or as
// per-switch LPs at any worker count.
func TestHistogramsWorkerInvariant(t *testing.T) {
	t.Parallel()
	type views struct {
		queue, delivery, message obs.Summary
		groups                   []obs.GroupReport
	}
	run := func(workers int) views {
		w := k8Workload(1, workers, false)
		c := NewFatTree(w.k, w.opts)
		defer c.Close()
		c.EnableGroupStats(0)
		if _, err := c.RunBcastErr(w.group(t, c), w.members[0], 256<<10); err != nil {
			t.Fatal(err)
		}
		c.SettleUntil(traceHorizon)
		return views{c.QueueDepth(), c.DeliveryLatency(), c.MessageLatency(), c.GroupReports()}
	}
	ref := run(0)
	if ref.queue.Count == 0 || ref.delivery.Count == 0 || ref.message.Count == 0 || len(ref.groups) != 1 {
		t.Fatalf("workload left a view empty: %+v", ref)
	}
	for _, workers := range []int{1, 4} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: views diverged from workers=0:\n  ref: %+v\n  got: %+v", workers, ref, got)
		}
	}
}

// TestDeliveryLatencySanity checks the always-on latency histograms: a
// completed broadcast must record one observation per accepted data packet
// at each receiver, with quantiles bounded by physical limits.
func TestDeliveryLatencySanity(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{Seed: 1})
	defer c.Close()
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
	defer c.Close()
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

// TestTraceSeqParEquivalence is the tracing analogue of the digest test.
//
// The canonical trace serialization is the partitioned coordinator's: it
// breaks same-nanosecond cross-LP delivery ties by (time, source LP, send
// order), a rule independent of how many goroutines execute the windows. So
// the merged stream must be byte-identical from fully serial execution
// (workers=1) through any parallel worker count.
//
// The legacy single engine serializes those same ties by scheduling order
// instead. Both serializations are deterministic and result-equivalent
// (TestSeqParDigestEquivalence pins jct/metrics/retransmits), but tie-order
// leaks into order-sensitive trace payloads — which packet got which queue
// depth — so legacy-vs-partitioned is compared on the tie-insensitive
// per-(device, kind) event census rather than bytes. DESIGN.md §10 records
// the distinction.
func TestTraceSeqParEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-mode fat-tree sweeps in -short mode")
	}
	census := func(m map[string]int) func(*Cluster, []obs.Event) {
		return func(c *Cluster, evs []obs.Event) {
			for i := range evs {
				m[c.Rec.DevName(evs[i].Dev)+"/"+evs[i].Kind.String()]++
			}
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		refCensus, legacyCensus := map[string]int{}, map[string]int{}
		_, ref := k8Workload(seed, 1, false).traced(t, 1<<20, nil, census(refCensus))
		for _, w := range []int{2, 4} {
			_, got := k8Workload(seed, w, false).traced(t, 1<<20, nil, nil)
			if !bytes.Equal(ref, got) {
				t.Errorf("seed %d: workers=%d trace diverges from serial partitioned run (%d vs %d bytes)", seed, w, len(got), len(ref))
			}
		}
		k8Workload(seed, 0, false).traced(t, 1<<20, nil, census(legacyCensus))
		if len(legacyCensus) != len(refCensus) {
			t.Errorf("seed %d: legacy engine census has %d (device, kind) classes, partitioned %d", seed, len(legacyCensus), len(refCensus))
		}
		for k, n := range refCensus {
			if legacyCensus[k] != n {
				t.Errorf("seed %d: event census diverges at %s: legacy %d, partitioned %d", seed, k, legacyCensus[k], n)
			}
		}
	}
}
