package cepheus

// This file regenerates the paper's micro-benchmark tables and figures
// (Fig 1d, Fig 7b, Fig 8, Fig 9, and the RDMC comparison in §V-A). Each
// benchmark runs the full experiment once per b.N iteration and prints the
// same rows/series the paper reports on the first iteration. EXPERIMENTS.md
// records paper-vs-measured for all of them.

import (
	"fmt"
	"testing"

	"repro/internal/amcast"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/roce"
)

// testbedJCT runs one broadcast on a fresh 4-host testbed and returns the
// JCT in nanoseconds.
func testbedJCT(scheme Scheme, size int, mtuCap int) float64 {
	tr := roce.DefaultConfig()
	if mtuCap > 0 {
		exp.ApplyCell(&tr.MTU, &tr.WindowPkts, size, tr.MTU, mtuCap)
	}
	c := NewTestbed(4, Options{Transport: &tr})
	b, err := c.Broadcaster(scheme, []int{0, 1, 2, 3}, 4)
	if err != nil {
		panic(err)
	}
	return float64(c.RunBcast(b, 0, size))
}

// BenchmarkFig1dAnalysis regenerates the Fig 1d comparison table for the
// 1-to-4 multicast.
func BenchmarkFig1dAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := amcast.AnalyzeFig1d(4, 2)
		if i == 0 {
			t := exp.NewTable("Fig 1d: 1-to-4 multicast analysis",
				"scheme", "total hops", "sender copies", "stack traversals", "steps")
			for _, r := range rows {
				t.Add(r.Scheme, fmt.Sprint(r.TotalHops), fmt.Sprint(r.SenderCopies),
					fmt.Sprint(r.StackTraversals), fmt.Sprint(r.Steps))
			}
			fmt.Print(t)
		}
	}
}

// BenchmarkFig7bMFTMemory regenerates the switch-resource accounting: MFT
// memory per group and for the paper's 1K-group bound on a 64-port switch.
func BenchmarkFig7bMFTMemory(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		per := core.MaxMemoryBytes(64)
		total = 1000 * per
		if i == 0 {
			t := exp.NewTable("Fig 7b: MFT memory model (BRAM-resident state)",
				"quantity", "bytes")
			t.Add("one group, 64-port switch (worst case)", fmt.Sprint(per))
			t.Add("1K groups per switch", fmt.Sprint(total))
			t.Add("paper's bound", "~690000 (0.69MB)")
			fmt.Print(t)
		}
	}
	b.ReportMetric(float64(total)/1e6, "MB/1Kgroups")
	if total > 750000 {
		b.Fatalf("1K groups cost %dB, far above the paper's 0.69MB", total)
	}
}

// BenchmarkFig8SmallMessages regenerates the testbed MPI-Bcast JCT for
// small messages: Cepheus vs Chain (3~5.2x) and BT (2.5~3.5x).
func BenchmarkFig8SmallMessages(b *testing.B) {
	sizes := []int{64, 512, 4 << 10, 64 << 10}
	var lastSpeedup float64
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Fig 8: MPI-Bcast JCT, small messages (4-node testbed)",
			"size", "cepheus(us)", "chain(us)", "bt(us)", "vs chain", "vs bt")
		for _, size := range sizes {
			ceph := testbedJCT(SchemeCepheus, size, 0)
			chain := testbedJCT(SchemeChain, size, 0)
			bt := testbedJCT(SchemeBinomial, size, 0)
			t.Add(exp.FormatBytes(size),
				fmt.Sprintf("%.2f", ceph/1e3), fmt.Sprintf("%.2f", chain/1e3),
				fmt.Sprintf("%.2f", bt/1e3),
				fmt.Sprintf("%.1fx", chain/ceph), fmt.Sprintf("%.1fx", bt/ceph))
			lastSpeedup = chain / ceph
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
	b.ReportMetric(lastSpeedup, "x-vs-chain")
}

// BenchmarkFig9LargeMessages regenerates the testbed MPI-Bcast JCT for
// large messages: Cepheus vs Chain (1.3~2.8x) and BT (2~2.8x).
func BenchmarkFig9LargeMessages(b *testing.B) {
	sizes := []int{1 << 20, 16 << 20, 128 << 20, 512 << 20}
	var lastSpeedup float64
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Fig 9: MPI-Bcast JCT, large messages (4-node testbed)",
			"size", "cepheus(ms)", "chain(ms)", "bt(ms)", "vs chain", "vs bt")
		for _, size := range sizes {
			ceph := testbedJCT(SchemeCepheus, size, 4096)
			chain := testbedJCT(SchemeChain, size, 4096)
			bt := testbedJCT(SchemeBinomial, size, 4096)
			t.Add(exp.FormatBytes(size),
				fmt.Sprintf("%.2f", ceph/1e6), fmt.Sprintf("%.2f", chain/1e6),
				fmt.Sprintf("%.2f", bt/1e6),
				fmt.Sprintf("%.1fx", chain/ceph), fmt.Sprintf("%.1fx", bt/ceph))
			lastSpeedup = chain / ceph
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
	b.ReportMetric(lastSpeedup, "x-vs-chain")
}

// BenchmarkRDMCComparison regenerates §V-A's RDMC comparison: a 256MB
// multicast, Cepheus 24.4ms vs RDMC ~35ms on the paper's testbed.
func BenchmarkRDMCComparison(b *testing.B) {
	const size = 256 << 20
	var ceph, rdmc float64
	for i := 0; i < b.N; i++ {
		ceph = testbedJCT(SchemeCepheus, size, 4096)
		rdmc = testbedJCT(SchemeRDMC, size, 4096)
		if i == 0 {
			t := exp.NewTable("§V-A: 256MB multicast vs RDMC",
				"scheme", "JCT(ms)", "paper(ms)")
			t.Add("cepheus", fmt.Sprintf("%.1f", ceph/1e6), "24.4")
			t.Add("rdmc", fmt.Sprintf("%.1f", rdmc/1e6), "~35")
			fmt.Print(t)
		}
	}
	b.ReportMetric(rdmc/ceph, "x-vs-rdmc")
	if ceph >= rdmc {
		b.Errorf("Cepheus (%.1fms) did not beat RDMC (%.1fms)", ceph/1e6, rdmc/1e6)
	}
}

// BenchmarkSafeguardFallback exercises §V-D: registration failure trips the
// safeguard, and the multicast falls back to an AMcast broadcaster that
// still delivers.
func BenchmarkSafeguardFallback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		acc := core.DefaultAccelConfig()
		acc.MaxGroups = 1 // the second group must be rejected
		c := NewTestbed(4, Options{Accel: &acc})
		if _, err := c.NewGroup([]int{0, 1, 2, 3}, 0); err != nil {
			b.Fatalf("first group: %v", err)
		}
		_, err := c.NewGroup([]int{0, 1, 2, 3}, 0)
		if err == nil {
			b.Fatal("second group should be rejected")
		}
		// Fallback: the default AMcast approach takes over.
		fb, _ := c.Broadcaster(SchemeChain, []int{0, 1, 2, 3}, 4)
		jct := c.RunBcast(fb, 0, 1<<20)
		if i == 0 {
			fmt.Printf("== §V-D safeguard fallback ==\nregistration rejected (%v)\nfallback %s delivered 1MB in %v\n",
				err, fb.Name(), jct)
		}
	}
}
