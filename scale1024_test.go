package cepheus

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// Paper-scale determinism: the digest and trace byte-equivalence guarantees
// proven on the 128-host (k=8) fabric must survive the jump to the 1024-host
// (k=16) fat-tree of §V-C, where the pod partition has 24 LPs and the
// cross-LP mailbox traffic is an order of magnitude denser. These mirror
// TestPodPartitionDigestEquivalence / TestPodPartitionTraceEquivalence at
// bench scale1024 geometry (members spread across all 16 pods), and are the
// correctness side of the BENCH_pr8 worker sweep: any scheduling shortcut
// that only shows up under many-LP merge pressure breaks here first.

// scale1024Members spreads n members across the k=16 fat-tree exactly like
// cepheus-bench's scale1024 sweep: member i lands on pod i mod 16, so every
// pod LP owns replication and delivery work.
func scale1024Members(n int) []int {
	const hostsPerPod = 16 * 16 / 4
	members := make([]int, n)
	for i := range members {
		members[i] = (i%16)*hostsPerPod + i/16
	}
	return members
}

// scale1024Workload runs a 256KB Cepheus broadcast to 64 members on the
// 1024-host fabric. workers=0 selects the sequential engine; otherwise the
// pod-level partition with that worker count.
func scale1024Workload(t *testing.T, seed int64, workers int) (simDigest, uint64) {
	t.Helper()
	c := NewFatTree(16, Options{Seed: seed, Workers: workers, PodPartition: true})
	defer c.Close()
	members := scale1024Members(64)
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(c.Now() + 10*sim.Millisecond) // drain registration residue
	jct, err := c.RunBcastErr(b, members[0], 256<<10)
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

// TestScale1024DigestEquivalence: on the 1024-host fabric, every pod-
// partitioned worker count must reproduce the sequential engine's simulated
// outcomes, and all partitioned runs must execute the same event count.
func TestScale1024DigestEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-host fat-tree sweep in -short mode")
	}
	const seed = 7
	ref, _ := scale1024Workload(t, seed, 0)
	var parEvents uint64
	for _, w := range []int{1, 2, 4, 8} {
		d, ev := scale1024Workload(t, seed, w)
		if d != ref {
			t.Errorf("workers %d: digest diverged from sequential:\n  seq: %+v\n  par: %+v", w, ref, d)
		}
		if parEvents == 0 {
			parEvents = ev
		} else if ev != parEvents {
			t.Errorf("workers %d: event count %d differs from other partitioned runs (%d)", w, ev, parEvents)
		}
	}
}

// scale1024TraceWorkload is scale1024Workload with the flight recorder and
// protocol auditor attached, returning the canonical JSONL export cut at a
// fixed virtual horizon.
func scale1024TraceWorkload(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	c := NewFatTree(16, Options{Seed: seed, Workers: workers, PodPartition: true})
	defer c.Close()
	rec := c.EnableTrace(1 << 21)
	c.EnableAudit()
	members := scale1024Members(64)
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBcastErr(b, members[0], 256<<10); err != nil {
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

// TestScale1024TraceEquivalence: the merged 1024-host trace must be byte-
// identical from serial pod-partitioned execution through workers {2, 4, 8},
// and every run must audit clean.
func TestScale1024TraceEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-host fat-tree sweep in -short mode")
	}
	const seed = 7
	ref := scale1024TraceWorkload(t, seed, 1)
	for _, w := range []int{2, 4, 8} {
		got := scale1024TraceWorkload(t, seed, w)
		if !bytes.Equal(ref, got) {
			t.Errorf("workers=%d trace diverges from serial pod run (%d vs %d bytes)", w, len(got), len(ref))
		}
	}
}
