package cepheus

import (
	"bytes"
	"testing"
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

// scale1024Workload is a 256KB Cepheus broadcast to 64 members on the
// 1024-host fabric. workers=0 selects the one-LP partition; otherwise the
// pod-level partition with that worker count.
func scale1024Workload(seed int64, workers int) equivWorkload {
	return equivWorkload{k: 16, members: scale1024Members(64), opts: Options{Seed: seed, Workers: workers, PodPartition: true}}
}

// TestScale1024DigestEquivalence: on the 1024-host fabric, every pod-
// partitioned worker count must reproduce the sequential engine's simulated
// outcomes, and all partitioned runs must execute the same event count.
func TestScale1024DigestEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("1024-host fat-tree sweep in -short mode")
	}
	const seed = 7
	ref, _ := scale1024Workload(seed, 0).digest(t)
	var parEvents uint64
	for _, w := range []int{1, 2, 4, 8} {
		d, ev := scale1024Workload(seed, w).digest(t)
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

// TestScale1024TraceEquivalence: the merged 1024-host trace must be byte-
// identical from serial pod-partitioned execution through workers {2, 4, 8},
// and every run must audit clean.
func TestScale1024TraceEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("1024-host fat-tree sweep in -short mode")
	}
	const seed = 7
	_, ref := scale1024Workload(seed, 1).traced(t, 1<<21, audited, auditClean(t))
	for _, w := range []int{2, 4, 8} {
		_, got := scale1024Workload(seed, w).traced(t, 1<<21, audited, auditClean(t))
		if !bytes.Equal(ref, got) {
			t.Errorf("workers=%d trace diverges from serial pod run (%d vs %d bytes)", w, len(got), len(ref))
		}
	}
}
