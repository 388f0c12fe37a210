package cepheus

// Simulator hot-path throughput on a fat-tree multicast. The §V-C
// large-scale experiments (Fig 12, 13, 14) live in internal/paper.

import (
	"testing"
	"time"

	"repro/internal/roce"
)

// BenchmarkScaleEvents measures the simulator's hot-path throughput — the
// events/sec and allocs/op budget every fat-tree sweep spends, and the
// baseline every PR's perf numbers track. One iteration is a 1MB Cepheus
// multicast to 64 receivers on a 128-host fat-tree (k=8) under DCQCN, so the
// workload exercises packet replication, feedback aggregation, pacing, and
// RTO/rate-timer churn together.
func BenchmarkScaleEvents(b *testing.B) {
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tr := roce.DefaultConfig()
		tr.DCQCN = true
		c := NewFatTree(8, Options{Transport: &tr})
		nodes := make([]int, 65)
		for j := range nodes {
			nodes[j] = j
		}
		br, err := c.Broadcaster(SchemeCepheus, nodes, 65)
		if err != nil {
			b.Fatal(err)
		}
		c.RunBcast(br, 0, 1<<20)
		events += c.EventsRun()
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed, "events/s")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
