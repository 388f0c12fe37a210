package cepheus

// Simulator hot-path throughput on a fat-tree multicast. The §V-C
// large-scale experiments (Fig 12, 13, 14) live in internal/paper.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/roce"
	"repro/internal/sim"
)

// benchScaleEvents measures the simulator's hot-path throughput — the
// events/sec and allocs/op budget every fat-tree sweep spends. One iteration
// is a 1MB Cepheus multicast to 64 receivers on a 128-host fat-tree (k=8)
// under DCQCN, so the workload exercises packet replication, feedback
// aggregation, pacing, and RTO/rate-timer churn together. workers 0 runs
// the sequential engine; >= 1 the lookahead-partitioned parallel executor.
func benchScaleEvents(b *testing.B, workers int) {
	var events uint64
	var virtual sim.Time
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tr := roce.DefaultConfig()
		tr.DCQCN = true
		c := NewFatTree(8, Options{Transport: &tr, Workers: workers})
		nodes := make([]int, 65)
		for j := range nodes {
			nodes[j] = j
		}
		br, err := c.Broadcaster(SchemeCepheus, nodes, 65)
		if err != nil {
			b.Fatal(err)
		}
		virtual += c.RunBcast(br, 0, 1<<20)
		events += c.EventsRun()
		c.Close()
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed, "events/s")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	_ = virtual
}

// BenchmarkScaleEvents is the sequential baseline every PR's perf numbers
// track.
func BenchmarkScaleEvents(b *testing.B) { benchScaleEvents(b, 0) }

// BenchmarkScaleEventsParallel sweeps the partitioned executor's worker
// counts on the same workload; the simulated results are byte-identical to
// the sequential run (TestSeqParDigestEquivalence), so the sweep isolates
// pure wall-clock scaling.
func BenchmarkScaleEventsParallel(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) { benchScaleEvents(b, w) })
	}
}
