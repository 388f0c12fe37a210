package topo

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkFatTreeBuild builds the paper's 1024-host k=16 fat-tree, route
// tables included, and reports the FIB's footprint summed over switches:
// fib-bytes for the dense per-host entries, fib-sets for the interned
// equal-cost port sets they index.
func BenchmarkFatTreeBuild(b *testing.B) {
	b.ReportAllocs()
	var entryBytes, sets int
	for i := 0; i < b.N; i++ {
		n := FatTree(sim.New(1), 16)
		entryBytes, sets = 0, 0
		for _, sw := range n.Switches {
			e, s := sw.FIBSize()
			entryBytes += e
			sets += s
		}
	}
	b.ReportMetric(float64(entryBytes), "fib-bytes")
	b.ReportMetric(float64(sets), "fib-sets")
}
