package paper

// The Benchmark targets regenerate the paper's tables and assert the shapes
// EXPERIMENTS.md records (who wins, by roughly what factor).

import (
	"fmt"
	"testing"

	cepheus "repro"
	"repro/internal/amcast"
	"repro/internal/exp"
	"repro/internal/roce"
	"repro/internal/sim"
)

// bench runs an experiment b.N times, prints its table on the first run,
// and returns the check values of the last. Runs are deterministic, so the
// last run's values are every run's.
func bench[T any](b *testing.B, experiment func() (*exp.Table, T, error)) T {
	var v T
	for i := 0; i < b.N; i++ {
		t, got, err := experiment()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Print(t)
		}
		v = got
	}
	return v
}

// noErr adapts an experiment that cannot fail to bench.
func noErr[T any](experiment func() (*exp.Table, T)) func() (*exp.Table, T, error) {
	return func() (*exp.Table, T, error) { t, v := experiment(); return t, v, nil }
}

// plainRun adapts a broadcasting experiment to bench, running it with Plain.
func plainRun[T any](experiment func(Bcast) (*exp.Table, T, error)) func() (*exp.Table, T, error) {
	return func() (*exp.Table, T, error) { return experiment(Plain) }
}

func BenchmarkFig1dAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := Fig1d(); i == 0 {
			fmt.Print(t)
		}
	}
}

// BenchmarkFig7bMFTMemory checks the 1K-group MFT memory against the
// paper's 0.69MB bound.
func BenchmarkFig7bMFTMemory(b *testing.B) {
	total := bench(b, noErr(Fig7b))
	b.ReportMetric(float64(total)/1e6, "MB/1Kgroups")
	if total > 750000 {
		b.Fatalf("1K groups cost %dB, far above the paper's 0.69MB", total)
	}
}

// reportVsChain reports the speedup over Chain at a sweep's largest size.
func reportVsChain(b *testing.B, rows []JCTs) {
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.Chain)/float64(last.Cepheus), "x-vs-chain")
}

// BenchmarkFig8SmallMessages: paper Cepheus 3~5.2x vs Chain, 2.5~3.5x vs BT.
func BenchmarkFig8SmallMessages(b *testing.B) { reportVsChain(b, bench(b, plainRun(Fig8))) }

// BenchmarkFig9LargeMessages: paper Cepheus 1.3~2.8x vs Chain, 2~2.8x vs BT.
func BenchmarkFig9LargeMessages(b *testing.B) { reportVsChain(b, bench(b, plainRun(Fig9))) }

// BenchmarkRDMCComparison: paper Cepheus 24.4ms vs RDMC ~35ms at 256MB.
func BenchmarkRDMCComparison(b *testing.B) {
	r := bench(b, plainRun(RDMC))
	b.ReportMetric(float64(r.RDMC)/float64(r.Cepheus), "x-vs-rdmc")
	if r.Cepheus >= r.RDMC {
		b.Errorf("Cepheus (%v) did not beat RDMC (%v)", r.Cepheus, r.RDMC)
	}
}

// BenchmarkSafeguardFallback: registration failure trips the safeguard,
// and the AMcast fallback still delivers.
func BenchmarkSafeguardFallback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := SafeguardFallback(Plain)
		if err != nil {
			b.Fatal(err)
		}
		if s.Rejected == nil {
			b.Fatal("second group should be rejected")
		}
		if s.JCT <= 0 {
			b.Fatalf("fallback %s delivered in %v", s.Fallback, s.JCT)
		}
		if i == 0 {
			fmt.Printf("== §V-D safeguard fallback ==\nregistration rejected (%v)\nfallback %s delivered 1MB in %v\n",
				s.Rejected, s.Fallback, s.JCT)
		}
	}
}

// BenchmarkTable1ReplicationIOPS: paper Cepheus 2.7x the IOPS of 3-unicasts.
func BenchmarkTable1ReplicationIOPS(b *testing.B) {
	x := bench(b, Table1)
	b.ReportMetric(x, "x-vs-3unicasts")
	if x < 2 {
		b.Errorf("cepheus only %.2fx of 3-unicasts; paper reports 2.7x", x)
	}
}

func BenchmarkFig10IOLatency(b *testing.B) {
	for _, r := range bench(b, Fig10) {
		if r.Cepheus >= r.UnicastN {
			b.Errorf("%dB: cepheus latency %v not below 3-unicasts %v", r.Size, r.Cepheus, r.UnicastN)
		}
	}
}

// BenchmarkFig11HPLJCT reports the JCT reduction with Panel Broadcast
// accelerated (paper: 12%).
func BenchmarkFig11HPLJCT(b *testing.B) {
	r := bench(b, Fig11)
	b.ReportMetric(100*(1-float64(r.AccelPB.JCT)/float64(r.BasePB.JCT)), "%JCT-reduction")
}

// BenchmarkFig11HPLComm reports the Panel Broadcast communication-time
// reduction (paper: 67%).
func BenchmarkFig11HPLComm(b *testing.B) {
	r := bench(b, Fig11)
	b.ReportMetric(100*(1-float64(r.AccelPB.PB)/float64(r.BasePB.PB)), "%PB-comm-reduction")
}

func BenchmarkHPLLargeScale(b *testing.B) {
	for _, r := range bench(b, noErr(HPLLarge)) {
		if r.Cepheus >= r.Base {
			b.Errorf("grid %d: no gain at scale", r.Grid)
		}
	}
}

// BenchmarkFig12LargeScale: paper Cepheus up to 164x/4.5x faster than
// Chain/BT on short flows, 2.1x/8.9x on large flows.
func BenchmarkFig12LargeScale(b *testing.B) {
	for _, r := range bench(b, func() (*exp.Table, []JCTs, error) { return Fig12(Plain, false) }) {
		if r.Chain <= r.Cepheus {
			b.Errorf("size %d: chain (%v) not slower than cepheus (%v)", r.Size, r.Chain, r.Cepheus)
		}
	}
}

// BenchmarkFig13LossTolerance runs the full sweep, scale 512 included: the
// paper's crossover — Cepheus falling behind Chain at scale 512 and loss
// 1e-4 — comes from the multicast sender retransmitting for every receiver.
func BenchmarkFig13LossTolerance(b *testing.B) {
	for _, r := range bench(b, func() (*exp.Table, []LossPoint, error) { return Fig13(Plain, true) }) {
		if r.Loss > 0 && r.Drops == 0 {
			b.Logf("scale %d loss %g: injector never fired", r.Scale, r.Loss)
		}
	}
}

// BenchmarkFig13CellSensitivity tests whether Fig 13's cell size causes
// Cepheus's early crossover at scale 64 and loss 1e-5: it runs those points
// at the Fig 13 budget and at a 4x finer one (32768 cells per flow, 4KB
// cells), reports Cepheus's FCT over Chain's at 1e-5 for each, and
// tabulates how the Cepheus sender recovered there.
func BenchmarkFig13CellSensitivity(b *testing.B) {
	recovery := exp.NewTable("Fig 13 cell sensitivity: Cepheus sender recovery at 64/1e-5",
		"cells", "drops", "nack rewinds", "rto rewinds", "retx MB")
	for _, cells := range []int{fig13Cells, 4 * fig13Cells} {
		// The last Cepheus run of the sweep is the lossy one.
		var sender roce.Stats
		var mtu int
		run := func(c *cepheus.Cluster, bc amcast.Broadcaster, root, size int, label string) (sim.Time, error) {
			jct, err := Plain(c, bc, root, size, label)
			if _, ok := bc.(*amcast.Cepheus); ok {
				sender, mtu = c.RNICs[root].Stats, c.RNICs[root].Cfg.MTU
			}
			return jct, err
		}
		rows := bench(b, func() (*exp.Table, []LossPoint, error) {
			return lossTable(run, fmt.Sprintf("Fig 13 cell sensitivity: %d cells per 128MB flow", cells),
				cells, []lossSweep{{64, []float64{0, 1e-5}}})
		})
		if rows[1].Drops == 0 {
			b.Errorf("%d cells: the 1e-5 injector never fired", cells)
		}
		recovery.Add(fmt.Sprint(cells), fmt.Sprint(rows[1].Drops), fmt.Sprint(sender.GoBackN),
			fmt.Sprint(sender.Timeouts), fmt.Sprint(sender.Retransmits*uint64(mtu)>>20))
		b.ReportMetric(float64(rows[1].Cepheus)/float64(rows[1].Chain), fmt.Sprintf("ceph/chain@%dcells", cells))
	}
	fmt.Print(recovery)
}

// BenchmarkFig14Fairness asserts fair sharing while f2 is active and
// re-convergence with f3 after f2 leaves: over the five 1ms rows ending at
// 20ms (f1 vs f2) and at 40ms (f1 vs f3), each flow holds at least 20 Gbps
// and neither exceeds 3x the other.
func BenchmarkFig14Fairness(b *testing.B) {
	rows := bench(b, func() (*exp.Table, []Fig14Row, error) { return Fig14(NewFig14Cluster()) })
	gbps := func(end sim.Time) (f1, f2, f3 float64) {
		var b1, b2, b3 uint64
		for _, r := range rows {
			if r.T > end-5*sim.Millisecond && r.T <= end {
				b1, b2, b3 = b1+r.F1, b2+r.F2, b3+r.F3
			}
		}
		return float64(b1) * 8 / 5e6, float64(b2) * 8 / 5e6, float64(b3) * 8 / 5e6
	}
	check := func(phase string, a, bw float64) {
		if a < 20 || bw < 20 {
			b.Errorf("%s: shares %.1f/%.1f Gbps — a flow starved", phase, a, bw)
		} else if r := a / bw; r < 0.33 || r > 3 {
			b.Errorf("%s: unfair split %.1f vs %.1f Gbps", phase, a, bw)
		}
	}
	f1vs2, f2, _ := gbps(20 * sim.Millisecond)
	f1vs3, _, f3 := gbps(40 * sim.Millisecond)
	check("f1 vs f2 (t=20ms)", f1vs2, f2)
	check("f1 vs f3 (t=40ms)", f1vs3, f3)
	b.ReportMetric(f1vs2, "f1GbpsVsF2")
	b.ReportMetric(f1vs3, "f1GbpsVsF3")
}

// BenchmarkReduceExtension: in-network reduction must return the exact
// aggregate (Reduce fails otherwise) and beat gather from 1MB up.
func BenchmarkReduceExtension(b *testing.B) {
	for _, r := range bench(b, Reduce) {
		if r.Size >= 1<<20 && r.Cepheus >= r.Gather {
			b.Errorf("%dB: in-network reduce (%v) not faster than gather (%v)", r.Size, r.Cepheus, r.Gather)
		}
	}
}

// BenchmarkPSTraining: gradient sums must be exact (PSTrain fails
// otherwise) and the Cepheus loop faster than the AMcast baseline.
func BenchmarkPSTraining(b *testing.B) {
	r := bench(b, PSTrain)
	b.ReportMetric(float64(r.AMcast.JCT)/float64(r.Cepheus.JCT), "x-jct")
	if r.Cepheus.JCT >= r.AMcast.JCT {
		b.Error("cepheus PS loop not faster than the AMcast baseline")
	}
}

// TestHarnessNeutral runs Fig 8 under a Bcast that enables tracing,
// auditing and group attribution on every cluster: the table must match the
// plain run byte for byte, and every audit must be clean.
func TestHarnessNeutral(t *testing.T) {
	want, _, err := Fig8(Plain)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	instrumented := func(c *cepheus.Cluster, b amcast.Broadcaster, root, size int, label string) (sim.Time, error) {
		c.EnableTrace(0)
		c.EnableAudit()
		c.EnableGroupStats(0)
		jct, err := c.RunBcastErr(b, root, size)
		if err != nil {
			return 0, err
		}
		if c.Aud.Seen() == 0 {
			t.Errorf("%s: the auditor saw no events", label)
		}
		if err := c.Aud.Err(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		runs++
		return jct, nil
	}
	got, _, err := Fig8(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 12 {
		t.Errorf("instrumented %d broadcasts, want 12 (4 sizes x 3 schemes)", runs)
	}
	if got.String() != want.String() {
		t.Errorf("instrumentation changed the table:\nplain:\n%s\ninstrumented:\n%s", want, got)
	}
}
