package cepheus

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// The pod-level partition (Options.PodPartition / topo.PartitionPods) must
// preserve every equivalence the per-switch partition already guarantees:
// simulated results identical to the sequential engine, and the merged
// flight-recorder stream byte-identical across worker counts. These tests
// mirror TestSeqParDigestEquivalence / TestTraceSeqParEquivalence on the
// coarse partition.

// podWorkload is seqParWorkload on the pod partition: the same 16-member
// 256KB broadcast over the 128-host (k=8) fat-tree, with one LP per pod /
// core group instead of one per switch.
func podWorkload(t *testing.T, seed int64, workers int) (simDigest, uint64) {
	t.Helper()
	c := NewFatTree(8, Options{Seed: seed, Workers: workers, PodPartition: true})
	defer c.Close()
	members := make([]int, 16)
	for i := range members {
		members[i] = i * 8
	}
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(c.Now() + 10*sim.Millisecond) // drain registration residue
	jct, err := c.RunBcastErr(b, 0, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(c.Now() + sim.Millisecond) // let trailing feedback land
	d := simDigest{jct: jct, metrics: c.Metrics().String()}
	for _, r := range c.RNICs {
		d.retrans += r.Stats.Retransmits
	}
	return d, c.EventsRun()
}

// TestPodPartitionDigestEquivalence: the pod partition must reproduce the
// sequential engine's simulated outcomes at every worker count, and all pod
// runs must execute the same event count.
func TestPodPartitionDigestEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ref, _ := seqParWorkload(t, seed, 1)
		var podEvents uint64
		for _, w := range []int{1, 2, 4, 8} {
			d, ev := podWorkload(t, seed, w)
			if d != ref {
				t.Errorf("seed %d workers %d: pod digest diverged from sequential:\n  seq: %+v\n  pod: %+v", seed, w, ref, d)
			}
			if podEvents == 0 {
				podEvents = ev
			} else if ev != podEvents {
				t.Errorf("seed %d workers %d: event count %d differs from other pod runs (%d)", seed, w, ev, podEvents)
			}
		}
	}
}

// podTraceWorkload is traceWorkload on the pod partition, with the protocol
// auditor attached: returns the canonical JSONL export cut at a fixed
// virtual horizon.
func podTraceWorkload(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	c := NewFatTree(8, Options{Seed: seed, Workers: workers, PodPartition: true})
	defer c.Close()
	rec := c.EnableTrace(1 << 20)
	c.EnableAudit()
	members := make([]int, 16)
	for i := range members {
		members[i] = i * 8
	}
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBcastErr(b, 0, 256<<10); err != nil {
		t.Fatal(err)
	}
	const horizon = 60 * sim.Millisecond
	c.SettleUntil(horizon)
	evs := rec.EventsUntil(horizon)
	if len(evs) == 0 {
		t.Fatal("trace captured nothing")
	}
	if rec.Lost() != 0 {
		t.Fatalf("flight recorder overflowed (lost %d)", rec.Lost())
	}
	auditMustBeClean(t, c)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPodPartitionTraceEquivalence: the merged trace must be byte-identical
// from serial pod-partitioned execution through any worker count, and every
// run must audit clean.
func TestPodPartitionTraceEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mode fat-tree sweeps in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		ref := podTraceWorkload(t, seed, 1)
		for _, w := range []int{2, 4} {
			got := podTraceWorkload(t, seed, w)
			if !bytes.Equal(ref, got) {
				t.Errorf("seed %d: workers=%d pod trace diverges from serial pod run (%d vs %d bytes)", seed, w, len(got), len(ref))
			}
		}
	}
}
