package cepheus

// Application benchmarks (§V-B): Table I (replication IOPS), Fig 10
// (single IO latency), Fig 11 (HPL), and the supplementary large-scale HPL
// model.

import (
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/hpl"
	"repro/internal/sim"
	"repro/internal/storage"
)

func newStorage(mode storage.Mode) *storage.Cluster {
	return storage.NewCluster(sim.New(1), mode, storage.DefaultConfig())
}

// BenchmarkTable1ReplicationIOPS regenerates Table I: 8KB replication
// writing throughput for 1-unicast, 3-unicasts and Cepheus.
func BenchmarkTable1ReplicationIOPS(b *testing.B) {
	paper := map[storage.Mode]string{
		storage.Unicast1: "1.188", storage.UnicastN: "0.413", storage.CepheusWrite: "1.167",
	}
	var ceph, u3 float64
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Table I: replication writing throughput, 8KB IOs",
			"scheme", "IOPS(M)", "paper(M)")
		for _, mode := range []storage.Mode{storage.Unicast1, storage.UnicastN, storage.CepheusWrite} {
			c := newStorage(mode)
			rate := c.RunIOPS(8<<10, 64, 20*sim.Millisecond)
			t.Add(mode.String(), fmt.Sprintf("%.3f", rate/1e6), paper[mode])
			switch mode {
			case storage.UnicastN:
				u3 = rate
			case storage.CepheusWrite:
				ceph = rate
			}
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
	b.ReportMetric(ceph/u3, "x-vs-3unicasts")
	if ceph/u3 < 2 {
		b.Errorf("cepheus only %.2fx of 3-unicasts; paper reports 2.7x", ceph/u3)
	}
}

// BenchmarkFig10IOLatency regenerates the single-IO latency sweep.
func BenchmarkFig10IOLatency(b *testing.B) {
	sizes := []int{4 << 10, 8 << 10, 64 << 10, 256 << 10, 512 << 10}
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Fig 10: single IO latency",
			"IO size", "1-unicast", "3-unicasts", "cepheus", "cepheus vs 3-unicasts")
		for _, size := range sizes {
			u1 := newStorage(storage.Unicast1).MeasureLatency(size, 10)
			u3 := newStorage(storage.UnicastN).MeasureLatency(size, 10)
			ceph := newStorage(storage.CepheusWrite).MeasureLatency(size, 10)
			t.Add(exp.FormatBytes(size), u1.String(), u3.String(), ceph.String(),
				fmt.Sprintf("-%.0f%%", 100*(1-float64(ceph)/float64(u3))))
			if ceph >= u3 {
				b.Errorf("%s: cepheus latency %v not below 3-unicasts %v",
					exp.FormatBytes(size), ceph, u3)
			}
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
}

func runHPL(p, q int, pb, rs hpl.Alg) hpl.Result {
	eng := sim.New(1)
	return hpl.NewTestbedCluster(eng, hpl.DefaultTestbedConfig(p, q), pb, rs).Run()
}

// BenchmarkFig11HPLJCT regenerates the end-to-end HPL JCT bars (Fig 11a).
func BenchmarkFig11HPLJCT(b *testing.B) {
	var pbGain float64
	for i := 0; i < b.N; i++ {
		basePB := runHPL(1, 4, hpl.AlgRing, hpl.AlgLong)
		accelPB := runHPL(1, 4, hpl.AlgCepheus, hpl.AlgLong)
		baseRS := runHPL(4, 1, hpl.AlgRing, hpl.AlgLong)
		accelRS := runHPL(4, 1, hpl.AlgRing, hpl.AlgCepheus)
		pbGain = 1 - float64(accelPB.JCT)/float64(basePB.JCT)
		if i == 0 {
			t := exp.NewTable("Fig 11a: HPL JCT", "setting", "JCT", "comm", "others", "reduction")
			t.Add("PB/baseline", basePB.JCT.String(), basePB.Comm().String(), basePB.Others().String(), "-")
			t.Add("PB/cepheus", accelPB.JCT.String(), accelPB.Comm().String(), accelPB.Others().String(),
				fmt.Sprintf("-%.1f%% (paper 12%%)", pbGain*100))
			t.Add("RS/baseline", baseRS.JCT.String(), baseRS.Comm().String(), baseRS.Others().String(), "-")
			t.Add("RS/cepheus", accelRS.JCT.String(), accelRS.Comm().String(), accelRS.Others().String(),
				fmt.Sprintf("-%.1f%% (paper 4%%)", 100*(1-float64(accelRS.JCT)/float64(baseRS.JCT))))
			fmt.Print(t)
		}
	}
	b.ReportMetric(pbGain*100, "%JCT-reduction")
}

// BenchmarkFig11HPLComm regenerates the communication-only bars (Fig 11b).
func BenchmarkFig11HPLComm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		basePB := runHPL(1, 4, hpl.AlgRing, hpl.AlgLong)
		accelPB := runHPL(1, 4, hpl.AlgCepheus, hpl.AlgLong)
		baseRS := runHPL(4, 1, hpl.AlgRing, hpl.AlgLong)
		accelRS := runHPL(4, 1, hpl.AlgRing, hpl.AlgCepheus)
		if i == 0 {
			t := exp.NewTable("Fig 11b: HPL communication time",
				"phase", "baseline", "cepheus", "reduction", "paper")
			t.Add("PB", basePB.PB.String(), accelPB.PB.String(),
				fmt.Sprintf("-%.0f%%", 100*(1-float64(accelPB.PB)/float64(basePB.PB))), "-67%")
			t.Add("RS", baseRS.RS.String(), accelRS.RS.String(),
				fmt.Sprintf("-%.0f%%", 100*(1-float64(accelRS.RS)/float64(baseRS.RS))), "-18%")
			fmt.Print(t)
		}
	}
}

// BenchmarkHPLLargeScale regenerates the supplementary large-grid HPL
// simulation with the analytic model (§V-B2: "up to 128*128 nodes ...
// consistent performance").
func BenchmarkHPLLargeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Large-scale HPL (analytic)", "grid", "baseline(s)", "cepheus(s)", "gain")
		for _, g := range []int{8, 32, 128} {
			cfg := hpl.Config{N: 65536, NB: 256, P: g, Q: g, GFlops: 800}
			base := hpl.Analytic(cfg, hpl.RingModel, hpl.LongModel)
			acc := hpl.Analytic(cfg, hpl.CepheusModel, hpl.CepheusModel)
			t.Add(fmt.Sprintf("%dx%d", g, g),
				fmt.Sprintf("%.2f", base.JCTSeconds), fmt.Sprintf("%.2f", acc.JCTSeconds),
				fmt.Sprintf("-%.1f%%", 100*(1-acc.JCTSeconds/base.JCTSeconds)))
			if acc.JCTSeconds >= base.JCTSeconds {
				b.Errorf("grid %d: no gain at scale", g)
			}
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
}
