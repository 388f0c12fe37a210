package cepheus

// Large-scale simulation benchmarks (§V-C): Fig 12 (512-receiver multicast
// FCT), Fig 13 (loss tolerance), and Fig 14 (fairness and convergence).

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/exp"
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

// fatTreeJCT runs one broadcast over a group of the given size on the
// 1024-host fat-tree (k=16), with cell sizing for large flows and optional
// loss injection.
func fatTreeJCT(scheme Scheme, groupSize, size int, loss float64) (jctNs float64, c *Cluster) {
	return fatTreeJCTCells(scheme, groupSize, size, loss, 2048)
}

// fatTreeJCTCells exposes the cell budget: loss experiments use finer
// cells (higher maxPackets) so per-loss go-back-N recovery cost stays
// realistic (see DESIGN.md §1).
func fatTreeJCTCells(scheme Scheme, groupSize, size int, loss float64, maxPackets int) (jctNs float64, c *Cluster) {
	tr := roce.DefaultConfig()
	tr.DCQCN = true // the paper's ns-3 setup runs go-back-N + DCQCN
	exp.ApplyCell(&tr.MTU, &tr.WindowPkts, size, tr.MTU, maxPackets)
	if loss > 0 {
		// Keep per-byte loss equivalent when cells are larger than the
		// reference 1KB MTU (DESIGN.md §1).
		loss *= float64(tr.MTU) / 1024.0
	}
	c = NewFatTree(16, Options{Transport: &tr})
	nodes := make([]int, groupSize)
	for i := range nodes {
		nodes[i] = i
	}
	// Chain slices follow the paper's "equal to the number of hosts"
	// configuration, which is what keeps Chain within ~2x on large flows.
	b, err := c.Broadcaster(scheme, nodes, groupSize)
	if err != nil {
		panic(err)
	}
	c.SetLossRate(loss)
	return float64(c.RunBcast(b, 0, size)), c
}

// BenchmarkFig12LargeScale regenerates the 512-scale multicast FCT sweep:
// Cepheus up to 164x/4.5x faster than Chain/BT on short flows, 2.1x/8.9x
// on large flows.
func BenchmarkFig12LargeScale(b *testing.B) {
	const group = 513 // sender + 512 receivers
	sizes := []int{64, 64 << 10, 16 << 20}
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Fig 12: FCT of a 512-scale multicast (1024-host fat-tree)",
			"size", "cepheus", "chain", "bt", "vs chain", "vs bt")
		for _, size := range sizes {
			ceph, _ := fatTreeJCT(SchemeCepheus, group, size, 0)
			chain, _ := fatTreeJCT(SchemeChain, group, size, 0)
			bt, _ := fatTreeJCT(SchemeBinomial, group, size, 0)
			t.Add(exp.FormatBytes(size),
				sim.Time(ceph).String(), sim.Time(chain).String(), sim.Time(bt).String(),
				fmt.Sprintf("%.1fx", chain/ceph), fmt.Sprintf("%.1fx", bt/ceph))
			if chain <= ceph {
				b.Errorf("size %d: chain (%v) not slower than cepheus (%v)",
					size, sim.Time(chain), sim.Time(ceph))
			}
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
}

// BenchmarkFig13LossTolerance regenerates the loss sweep: FCT and
// normalized throughput of a 128MB multicast under packet loss rates
// 1e-6..1e-4, at group scales 64 and 512, Cepheus vs Chain. The paper's
// crossover — Cepheus falling behind Chain at scale 512 and loss 1e-4 —
// comes from the multicast sender retransmitting for every receiver.
func BenchmarkFig13LossTolerance(b *testing.B) {
	const size = 128 << 20
	// The 512-scale chain runs are expensive; sweep the full loss range at
	// scale 64 and probe the paper's crossover point at scale 512.
	lossesFor := map[int][]float64{
		64:  {0, 1e-6, 1e-5, 1e-4},
		512: {0, 1e-4},
	}
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Fig 13: 128MB multicast under loss",
			"scale/loss", "cepheus FCT", "chain FCT", "ceph norm tput", "chain norm tput")
		for _, scale := range []int{64, 512} {
			var cephBase, chainBase float64
			for _, loss := range lossesFor[scale] {
				ceph, cc := fatTreeJCTCells(SchemeCepheus, scale+1, size, loss, 8192)
				chain, _ := fatTreeJCTCells(SchemeChain, scale+1, size, loss, 8192)
				if loss == 0 {
					cephBase, chainBase = ceph, chain
				} else if cc.TotalDrops() == 0 {
					b.Logf("scale %d loss %g: injector never fired", scale, loss)
				}
				t.Add(fmt.Sprintf("%d/%.0e", scale, loss),
					sim.Time(ceph).String(), sim.Time(chain).String(),
					fmt.Sprintf("%.2f", cephBase/ceph), fmt.Sprintf("%.2f", chainBase/chain))
			}
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
}

// BenchmarkFig14Fairness regenerates the fairness/convergence experiment:
// a 1-to-15 Cepheus multicast (f1) sharing bottlenecks with sequenced
// unicasts f2 and f3 under DCQCN. Asserts fair sharing while f2 is active
// and re-convergence with f3 after f2 leaves.
func BenchmarkFig14Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := roce.DefaultConfig()
		tr.DCQCN = true
		tr.MTU = 4096
		c := NewFatTree(4, Options{Transport: &tr}) // 16 hosts
		members := make([]int, 16)
		for j := range members {
			members[j] = j
		}
		g, err := c.NewGroup(members, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range g.Members[1:] {
			m.QP.OnMessage = func(roce.Message) {}
		}
		f1 := g.Members[0].QP
		mk := func(src, dst int) (*roce.QP, *roce.QP) {
			sq := c.RNICs[src].CreateQP()
			rq := c.RNICs[dst].CreateQP()
			sq.Connect(c.Host(dst).IP, rq.QPN)
			rq.Connect(c.Host(src).IP, sq.QPN)
			return sq, rq
		}
		f2, f2r := mk(1, 2)
		f3, f3r := mk(3, 4)
		stream := func(qp *roce.QP, stop *bool) {
			var post func()
			post = func() {
				if !*stop {
					qp.PostSend(1<<20, post)
				}
			}
			post()
		}
		var stop1, stop2, stop3 bool
		eng := c.Net.Eng
		stream(f1, &stop1)
		eng.Schedule(5*sim.Millisecond, func() { stream(f2, &stop2) })
		eng.Schedule(20*sim.Millisecond, func() { stop2 = true })
		eng.Schedule(25*sim.Millisecond, func() { stream(f3, &stop3) })

		// Sample the representative multicast receiver (host 2 shares its
		// downlink with f2's receiver; host 4 with f3's).
		f1probe := g.Members[1].QP
		gbps := func(cur, prev uint64, ms float64) float64 {
			return float64(cur-prev) * 8 / (ms * 1e6)
		}
		var p1, p2, p3 uint64
		series := exp.NewTable("Fig 14: throughput dynamics (Gbps per 5ms window)",
			"t(ms)", "f1 mcast", "f2 unicast", "f3 unicast")
		var f1Share2, f2Share, f1Share3, f3Share float64
		for tWin := 5 * sim.Millisecond; tWin <= 40*sim.Millisecond; tWin += 5 * sim.Millisecond {
			eng.RunUntil(tWin)
			w1 := gbps(f1probe.GoodputBytes, p1, 5)
			w2 := gbps(f2r.GoodputBytes, p2, 5)
			w3 := gbps(f3r.GoodputBytes, p3, 5)
			p1, p2, p3 = f1probe.GoodputBytes, f2r.GoodputBytes, f3r.GoodputBytes
			series.Add(fmt.Sprint(tWin/sim.Millisecond),
				fmt.Sprintf("%.1f", w1), fmt.Sprintf("%.1f", w2), fmt.Sprintf("%.1f", w3))
			if tWin == 20*sim.Millisecond {
				f1Share2, f2Share = w1, w2
			}
			if tWin == 40*sim.Millisecond {
				f1Share3, f3Share = w1, w3
			}
		}
		stop1, stop3 = true, true
		if i == 0 {
			fmt.Print(series)
		}
		// Fairness assertions: both contention periods end near a fair
		// split (each flow within 2x of the other).
		check := func(phase string, a, bw float64) {
			if a < 20 || bw < 20 {
				b.Errorf("%s: shares %.1f/%.1f Gbps — a flow starved", phase, a, bw)
			} else if r := a / bw; r < 0.33 || r > 3 {
				b.Errorf("%s: unfair split %.1f vs %.1f Gbps", phase, a, bw)
			}
		}
		check("f1 vs f2 (t=20ms)", f1Share2, f2Share)
		check("f1 vs f3 (t=40ms)", f1Share3, f3Share)
		b.ReportMetric(f1Share2, "f1GbpsVsF2")
		b.ReportMetric(f1Share3, "f1GbpsVsF3")
	}
}
