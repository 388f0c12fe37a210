package cepheus

import (
	"bytes"
	"testing"
)

// The pod-level partition (Options.PodPartition: topo.Partition over
// Network.Domains) must preserve every equivalence the per-switch partition
// already guarantees: simulated results identical to the sequential engine,
// and the merged flight-recorder stream byte-identical across worker counts.
// These tests mirror TestSeqParDigestEquivalence / TestTraceSeqParEquivalence
// on the coarse partition.

// TestPodPartitionDigestEquivalence: the pod partition must reproduce the
// sequential engine's simulated outcomes at every worker count, and all pod
// runs must execute the same event count.
func TestPodPartitionDigestEquivalence(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		ref, _ := k8Workload(seed, 1, false).digest(t)
		var podEvents uint64
		for _, w := range []int{1, 2, 4, 8} {
			d, ev := k8Workload(seed, w, true).digest(t)
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

// TestPodPartitionTraceEquivalence: the merged trace must be byte-identical
// from serial pod-partitioned execution through any worker count, and every
// run must audit clean.
func TestPodPartitionTraceEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-mode fat-tree sweeps in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		_, ref := k8Workload(seed, 1, true).traced(t, 1<<20, audited, auditClean(t))
		for _, w := range []int{2, 4} {
			_, got := k8Workload(seed, w, true).traced(t, 1<<20, audited, auditClean(t))
			if !bytes.Equal(ref, got) {
				t.Errorf("seed %d: workers=%d pod trace diverges from serial pod run (%d vs %d bytes)", seed, w, len(got), len(ref))
			}
		}
	}
}
