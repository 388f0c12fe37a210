// Package paper holds the one definition of each evaluation experiment (§V)
// the reproduction regenerates: Fig 1d, Fig 7b, Fig 8, Fig 9, the RDMC
// comparison, Table I, Fig 10, Fig 11, the large-scale HPL model, Fig 12,
// Fig 13, Fig 14, the §V-D safeguard fallback, and the reduce and
// PS-training extensions. Each function builds its clusters, runs them, and
// returns the printable table plus the values the benchmark checks read.
// cmd/cepheus-bench prints the tables; the Benchmark targets in this
// package assert on the values. EXPERIMENTS.md records paper-vs-measured.
package paper

import (
	"fmt"
	"math"

	cepheus "repro"
	"repro/internal/amcast"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hpl"
	"repro/internal/ps"
	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Bcast runs one broadcast of size bytes from root on c and returns its
// JCT; label names the case (e.g. "testbed/cepheus/64B") for the caller's
// records. Every experiment broadcast goes through it, so a caller can wrap
// the same runs with instrumentation: Plain is the bare runner, and
// cepheus-bench passes one that adds tracing, auditing, group stats and
// -json records.
type Bcast func(c *cepheus.Cluster, b amcast.Broadcaster, root, size int, label string) (sim.Time, error)

// Plain runs the broadcast with no instrumentation.
func Plain(c *cepheus.Cluster, b amcast.Broadcaster, root, size int, _ string) (sim.Time, error) {
	return c.RunBcastErr(b, root, size)
}

// Fig1d is the analytic 1-to-4 multicast comparison: hops, sender copies,
// stack traversals and steps per scheme.
func Fig1d() *exp.Table {
	t := exp.NewTable("Fig 1d: 1-to-4 multicast analysis",
		"scheme", "total hops", "sender copies", "stack traversals", "steps")
	for _, r := range amcast.AnalyzeFig1d(4, 2) {
		t.Add(r.Scheme, fmt.Sprint(r.TotalHops), fmt.Sprint(r.SenderCopies),
			fmt.Sprint(r.StackTraversals), fmt.Sprint(r.Steps))
	}
	return t
}

// Fig7b is the switch-resource accounting: worst-case MFT memory per group
// on a 64-port switch, and the total for the paper's 1K-group bound, which
// it also returns in bytes.
func Fig7b() (*exp.Table, int) {
	per := core.MaxMemoryBytes(64)
	total := 1000 * per
	t := exp.NewTable("Fig 7b: MFT memory model", "quantity", "bytes")
	t.Add("one group, 64-port switch", fmt.Sprint(per))
	t.Add("1K groups per switch", fmt.Sprint(total))
	t.Add("paper bound", "~690000 (0.69MB)")
	return t, total
}

// JCTs is one size of a broadcast sweep: each scheme's JCT.
type JCTs struct {
	Size               int
	Cepheus, Chain, BT sim.Time
}

// hosts returns host indices 0..n-1.
func hosts(n int) []int {
	h := make([]int, n)
	for i := range h {
		h[i] = i
	}
	return h
}

// sweep measures Cepheus, Chain and BT at every size through jct and
// tabulates their JCTs (formatted by cell, with unit suffixing the column
// headers) and Chain's and BT's slowdown against Cepheus.
func sweep(title, unit string, sizes []int, cell func(sim.Time) string,
	jct func(cepheus.Scheme, int) (sim.Time, error)) (*exp.Table, []JCTs, error) {
	t := exp.NewTable(title, "size", "cepheus"+unit, "chain"+unit, "bt"+unit, "vs chain", "vs bt")
	var rows []JCTs
	for _, size := range sizes {
		r := JCTs{Size: size}
		var err error
		if r.Cepheus, err = jct(cepheus.SchemeCepheus, size); err != nil {
			return nil, nil, err
		}
		if r.Chain, err = jct(cepheus.SchemeChain, size); err != nil {
			return nil, nil, err
		}
		if r.BT, err = jct(cepheus.SchemeBinomial, size); err != nil {
			return nil, nil, err
		}
		ceph := float64(r.Cepheus)
		t.Add(exp.FormatBytes(size), cell(r.Cepheus), cell(r.Chain), cell(r.BT),
			fmt.Sprintf("%.1fx", float64(r.Chain)/ceph), fmt.Sprintf("%.1fx", float64(r.BT)/ceph))
		rows = append(rows, r)
	}
	return t, rows, nil
}

// onTestbed returns a sweep jct that runs one broadcast on a fresh 4-host
// testbed. cellCap > 0 applies the DESIGN.md §1 cell-size rule with that
// packet budget.
func onTestbed(run Bcast, cellCap int) func(cepheus.Scheme, int) (sim.Time, error) {
	return func(scheme cepheus.Scheme, size int) (sim.Time, error) {
		tr := roce.DefaultConfig()
		if cellCap > 0 {
			exp.ApplyCell(&tr.MTU, &tr.WindowPkts, size, tr.MTU, cellCap)
		}
		c := cepheus.NewTestbed(4, cepheus.Options{Transport: &tr})
		b, err := c.Broadcaster(scheme, hosts(4), 4)
		if err != nil {
			return 0, err
		}
		return run(c, b, 0, size, fmt.Sprintf("testbed/%s/%s", scheme, exp.FormatBytes(size)))
	}
}

// scaled formats a JCT as a number of the given unit (in ns).
func scaled(unit float64) func(sim.Time) string {
	return func(d sim.Time) string { return fmt.Sprintf("%.2f", float64(d)/unit) }
}

// Fig8 is the testbed MPI-Bcast JCT for small messages.
func Fig8(run Bcast) (*exp.Table, []JCTs, error) {
	return sweep("Fig 8: MPI-Bcast JCT, small messages (paper: 3-5.2x vs chain, 2.5-3.5x vs BT)", "(us)",
		[]int{64, 512, 4 << 10, 64 << 10}, scaled(1e3), onTestbed(run, 0))
}

// Fig9 is the testbed MPI-Bcast JCT for large messages.
func Fig9(run Bcast) (*exp.Table, []JCTs, error) {
	return sweep("Fig 9: MPI-Bcast JCT, large messages (paper: 1.3-2.8x vs chain, 2-2.8x vs BT)", "(ms)",
		[]int{1 << 20, 16 << 20, 128 << 20, 512 << 20}, scaled(1e6), onTestbed(run, 4096))
}

// RDMCRun is the RDMC comparison's two JCTs.
type RDMCRun struct{ Cepheus, RDMC sim.Time }

// RDMC is §V-A's 256MB multicast, Cepheus vs RDMC on the testbed.
func RDMC(run Bcast) (*exp.Table, RDMCRun, error) {
	const size = 256 << 20
	jct := onTestbed(run, 4096)
	var r RDMCRun
	var err error
	if r.Cepheus, err = jct(cepheus.SchemeCepheus, size); err != nil {
		return nil, r, err
	}
	if r.RDMC, err = jct(cepheus.SchemeRDMC, size); err != nil {
		return nil, r, err
	}
	t := exp.NewTable("§V-A: 256MB multicast vs RDMC", "scheme", "JCT(ms)", "paper(ms)")
	t.Add("cepheus", fmt.Sprintf("%.1f", float64(r.Cepheus)/1e6), "24.4")
	t.Add("rdmc", fmt.Sprintf("%.1f", float64(r.RDMC)/1e6), "~35")
	return t, r, nil
}

// Table1 is the 8KB replication writing throughput of 1-unicast,
// 3-unicasts and Cepheus. It also returns Cepheus's IOPS as a multiple of
// 3-unicasts'.
func Table1() (*exp.Table, float64, error) {
	paper := map[storage.Mode]string{
		storage.Unicast1: "1.188", storage.UnicastN: "0.413", storage.CepheusWrite: "1.167",
	}
	t := exp.NewTable("Table I: replication writing throughput, 8KB IOs",
		"scheme", "IOPS(M)", "paper(M)")
	iops := map[storage.Mode]float64{}
	for _, mode := range []storage.Mode{storage.Unicast1, storage.UnicastN, storage.CepheusWrite} {
		c, err := storage.NewCluster(mode, storage.DefaultConfig())
		if err != nil {
			return nil, 0, err
		}
		iops[mode] = c.RunIOPS(8<<10, 64, 20*sim.Millisecond)
		t.Add(mode.String(), fmt.Sprintf("%.3f", iops[mode]/1e6), paper[mode])
	}
	return t, iops[storage.CepheusWrite] / iops[storage.UnicastN], nil
}

// IOLatency is one IO size of Fig 10: each write path's single-IO latency.
type IOLatency struct {
	Size                        int
	Unicast1, UnicastN, Cepheus sim.Time
}

// Fig10 is the single-IO latency sweep over IO sizes.
func Fig10() (*exp.Table, []IOLatency, error) {
	t := exp.NewTable("Fig 10: single IO latency",
		"IO size", "1-unicast", "3-unicasts", "cepheus", "cepheus vs 3-unicasts")
	var rows []IOLatency
	for _, size := range []int{4 << 10, 8 << 10, 64 << 10, 256 << 10, 512 << 10} {
		r := IOLatency{Size: size}
		for _, m := range []struct {
			mode storage.Mode
			lat  *sim.Time
		}{{storage.Unicast1, &r.Unicast1}, {storage.UnicastN, &r.UnicastN}, {storage.CepheusWrite, &r.Cepheus}} {
			c, err := storage.NewCluster(m.mode, storage.DefaultConfig())
			if err != nil {
				return nil, nil, err
			}
			if *m.lat, err = c.MeasureLatency(size, 10); err != nil {
				return nil, nil, err
			}
		}
		t.Add(exp.FormatBytes(size), r.Unicast1.String(), r.UnicastN.String(), r.Cepheus.String(),
			fmt.Sprintf("-%.0f%%", 100*(1-float64(r.Cepheus)/float64(r.UnicastN))))
		rows = append(rows, r)
	}
	return t, rows, nil
}

// HPLRuns are Fig 11's four testbed HPL runs: the 1x4 grid accelerates
// Panel Broadcast, the 4x1 grid Row Swap.
type HPLRuns struct {
	BasePB, AccelPB, BaseRS, AccelRS hpl.Result
}

// Fig11 is the HPL JCT and communication-time comparison on the testbed,
// with HPL's recommended increasing-ring PB and long RS as the baseline.
func Fig11() (*exp.Table, HPLRuns, error) {
	var r HPLRuns
	for _, run := range []struct {
		p, q   int
		pb, rs cepheus.Scheme
		res    *hpl.Result
	}{
		{1, 4, cepheus.SchemeRing, cepheus.SchemeLong, &r.BasePB},
		{1, 4, cepheus.SchemeCepheus, cepheus.SchemeLong, &r.AccelPB},
		{4, 1, cepheus.SchemeRing, cepheus.SchemeLong, &r.BaseRS},
		{4, 1, cepheus.SchemeRing, cepheus.SchemeCepheus, &r.AccelRS},
	} {
		c, err := hpl.NewTestbedCluster(hpl.DefaultTestbedConfig(run.p, run.q), run.pb, run.rs)
		if err != nil {
			return nil, r, err
		}
		if *run.res, err = c.Run(); err != nil {
			return nil, r, err
		}
	}
	t := exp.NewTable("Fig 11: HPL (paper: JCT -12% PB / -4% RS; comm -67% PB / -18% RS)",
		"setting", "JCT", "comm", "others", "JCT red.", "comm red.")
	add := func(name string, base, acc hpl.Result, commBase, commAcc sim.Time) {
		t.Add(name+"/baseline", base.JCT.String(), base.Comm().String(), base.Others().String(), "-", "-")
		t.Add(name+"/cepheus", acc.JCT.String(), acc.Comm().String(), acc.Others().String(),
			fmt.Sprintf("-%.1f%%", 100*(1-float64(acc.JCT)/float64(base.JCT))),
			fmt.Sprintf("-%.0f%%", 100*(1-float64(commAcc)/float64(commBase))))
	}
	add("PB(1x4)", r.BasePB, r.AccelPB, r.BasePB.PB, r.AccelPB.PB)
	add("RS(4x1)", r.BaseRS, r.AccelRS, r.BaseRS.RS, r.AccelRS.RS)
	return t, r, nil
}

// HPLScale is one grid of the large-scale HPL model, JCTs in seconds.
type HPLScale struct {
	Grid          int
	Base, Cepheus float64
}

// HPLLarge projects HPL to large grids with the analytic model (§V-B2: "up
// to 128*128 nodes ... consistent performance").
func HPLLarge() (*exp.Table, []HPLScale) {
	t := exp.NewTable("Large-scale HPL (analytic)", "grid", "baseline(s)", "cepheus(s)", "gain")
	var rows []HPLScale
	for _, g := range []int{8, 32, 128} {
		cfg := hpl.Config{N: 65536, NB: 256, P: g, Q: g, GFlops: 800}
		r := HPLScale{Grid: g,
			Base:    hpl.Analytic(cfg, hpl.RingModel, hpl.LongModel).JCTSeconds,
			Cepheus: hpl.Analytic(cfg, hpl.CepheusModel, hpl.CepheusModel).JCTSeconds}
		t.Add(fmt.Sprintf("%dx%d", g, g),
			fmt.Sprintf("%.2f", r.Base), fmt.Sprintf("%.2f", r.Cepheus),
			fmt.Sprintf("-%.1f%%", 100*(1-r.Cepheus/r.Base)))
		rows = append(rows, r)
	}
	return t, rows
}

// fatTreeJCT runs one broadcast over hosts 0..groupSize-1 of the 1024-host
// (k=16) fat-tree under DCQCN, with the cell-size rule at a budget of
// maxPackets and loss injected per reference 1KB packet. It returns the JCT
// and the loss-injected drops.
func fatTreeJCT(run Bcast, scheme cepheus.Scheme, groupSize, size int, loss float64, maxPackets int) (sim.Time, uint64, error) {
	tr := roce.DefaultConfig()
	tr.DCQCN = true // the paper's ns-3 setup runs go-back-N + DCQCN
	exp.ApplyCell(&tr.MTU, &tr.WindowPkts, size, tr.MTU, maxPackets)
	if loss > 0 {
		// Keep per-byte loss equivalent when cells are larger than the
		// reference 1KB MTU (DESIGN.md §1).
		loss *= float64(tr.MTU) / 1024.0
	}
	c := cepheus.NewFatTree(16, cepheus.Options{Transport: &tr})
	// Chain slices follow the paper's "equal to the number of hosts"
	// configuration, which is what keeps Chain within ~2x on large flows.
	b, err := c.Broadcaster(scheme, hosts(groupSize), groupSize)
	if err != nil {
		return 0, 0, err
	}
	c.SetLossRate(loss)
	jct, err := run(c, b, 0, size,
		fmt.Sprintf("fattree/%s/n%d/%s/loss=%g", scheme, groupSize, exp.FormatBytes(size), loss))
	return jct, c.TotalDrops(), err
}

// Fig12 is the FCT of a 512-receiver multicast on the 1024-host fat-tree
// across flow sizes; full adds the 256MB and 1GB points.
func Fig12(run Bcast, full bool) (*exp.Table, []JCTs, error) {
	const group = 513 // sender + 512 receivers
	sizes := []int{64, 64 << 10, 16 << 20}
	if full {
		sizes = append(sizes, 256<<20, 1<<30)
	}
	return sweep("Fig 12: 512-scale multicast FCT (paper: up to 164x/4.5x short, 2.1x/8.9x large)", "",
		sizes, sim.Time.String, func(scheme cepheus.Scheme, size int) (sim.Time, error) {
			jct, _, err := fatTreeJCT(run, scheme, group, size, 0, 2048)
			return jct, err
		})
}

// fig13Cells is the cell budget (packets per flow) of the Fig 13 loss
// sweep, finer than Fig 12's 2048. BenchmarkFig13CellSensitivity compares it
// with a 4x finer budget.
const fig13Cells = 8192

// LossPoint is one scale/loss point of a loss sweep.
type LossPoint struct {
	Scale          int
	Loss           float64
	Cepheus, Chain sim.Time
	Drops          uint64 // loss-injected drops in the Cepheus run
}

// lossSweep is one group scale's loss rates. The first rate is the
// lossless baseline the normalized throughputs divide by.
type lossSweep struct {
	scale  int
	losses []float64
}

// lossTable runs a 128MB multicast, Cepheus vs Chain, at every scale and
// loss rate of the sweeps with the given cell budget, and tabulates FCT and
// normalized throughput.
func lossTable(run Bcast, title string, cells int, sweeps []lossSweep) (*exp.Table, []LossPoint, error) {
	const size = 128 << 20
	t := exp.NewTable(title, "scale/loss", "cepheus FCT", "chain FCT", "ceph norm", "chain norm")
	var rows []LossPoint
	for _, sw := range sweeps {
		var cephBase, chainBase float64
		for i, loss := range sw.losses {
			p := LossPoint{Scale: sw.scale, Loss: loss}
			var err error
			if p.Cepheus, p.Drops, err = fatTreeJCT(run, cepheus.SchemeCepheus, sw.scale+1, size, loss, cells); err != nil {
				return nil, nil, err
			}
			if p.Chain, _, err = fatTreeJCT(run, cepheus.SchemeChain, sw.scale+1, size, loss, cells); err != nil {
				return nil, nil, err
			}
			if i == 0 {
				cephBase, chainBase = float64(p.Cepheus), float64(p.Chain)
			}
			t.Add(fmt.Sprintf("%d/%.0e", sw.scale, loss), p.Cepheus.String(), p.Chain.String(),
				fmt.Sprintf("%.2f", cephBase/float64(p.Cepheus)), fmt.Sprintf("%.2f", chainBase/float64(p.Chain)))
			rows = append(rows, p)
		}
	}
	return t, rows, nil
}

// Fig13 is the 128MB multicast under packet loss at group scale 64 (loss
// 0..1e-4). full adds scale 512 at the paper's crossover point, loss 1e-4,
// and its lossless baseline.
func Fig13(run Bcast, full bool) (*exp.Table, []LossPoint, error) {
	sweeps := []lossSweep{{64, []float64{0, 1e-6, 1e-5, 1e-4}}}
	if full {
		// The 512-scale chain runs are expensive: probe only the crossover.
		sweeps = append(sweeps, lossSweep{512, []float64{0, 1e-4}})
	}
	return lossTable(run, "Fig 13: 128MB multicast under loss (normalized to lossless)", fig13Cells, sweeps)
}

// NewFig14Cluster builds Fig 14's 16-host (k=4) fat-tree under DCQCN with
// 4KB MTU. Fig14 runs on it; a caller may enable tracing, auditing, group
// stats or the telemetry sampler in between.
func NewFig14Cluster() *cepheus.Cluster {
	tr := roce.DefaultConfig()
	tr.DCQCN = true
	tr.MTU = 4096
	return cepheus.NewFatTree(4, cepheus.Options{Transport: &tr})
}

// Fig14Row is one 1ms row of Fig 14: the payload bytes each flow delivered
// in the millisecond ending at T (f1 at its representative receiver).
type Fig14Row struct {
	T          sim.Time
	F1, F2, F3 uint64
}

// Fig14 is the fairness and convergence experiment on a NewFig14Cluster:
// a 1-to-15 Cepheus multicast f1 streams from t=0, unicast f2 (host 1→2)
// competes from 5ms to 20ms, and unicast f3 (host 3→4) from 25ms; the table
// reports each flow's Gbps per 1ms up to 40ms. When c already has a
// SeriesSet, Fig 14 adds the three flows' DCQCN rates to it and starts it.
func Fig14(c *cepheus.Cluster) (*exp.Table, []Fig14Row, error) {
	g, err := c.NewGroup(hosts(16), 0)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range g.Members[1:] {
		m.QP.OnMessage = func(roce.Message) {}
	}
	mk := func(src, dst int) (*roce.QP, *roce.QP) {
		sq := c.RNICs[src].CreateQP()
		rq := c.RNICs[dst].CreateQP()
		sq.Connect(c.Host(dst).IP, rq.QPN)
		rq.Connect(c.Host(src).IP, sq.QPN)
		return sq, rq
	}
	f1 := g.Members[0].QP
	f2, f2r := mk(1, 2)
	f3, f3r := mk(3, 4)
	if ser := c.Series; ser != nil {
		ser.Track("rate/f1-mcast", func() float64 { return f1.Rate() / 1e9 })
		ser.Track("rate/f2", func() float64 { return f2.Rate() / 1e9 })
		ser.Track("rate/f3", func() float64 { return f3.Rate() / 1e9 })
		ser.Start()
	}
	var stop1, stop2, stop3 bool
	stream := func(qp *roce.QP, stop *bool) {
		var post func()
		post = func() {
			if !*stop {
				qp.PostSend(1<<20, post)
			}
		}
		post()
	}
	stream(f1, &stop1)
	eng := c.Net.Eng
	eng.Schedule(5*sim.Millisecond, func() { stream(f2, &stop2) })
	eng.Schedule(20*sim.Millisecond, func() { stop2 = true })
	eng.Schedule(25*sim.Millisecond, func() { stream(f3, &stop3) })
	// Sample the representative multicast receiver: host 2 shares its
	// downlink with f2's receiver, host 4 with f3's.
	probe := g.Members[1].QP
	t := exp.NewTable("Fig 14: throughput dynamics (Gbps per 1ms)", "t(ms)", "f1 mcast", "f2", "f3")
	var rows []Fig14Row
	var p1, p2, p3 uint64
	for tm := sim.Millisecond; tm <= 40*sim.Millisecond; tm += sim.Millisecond {
		eng.RunUntil(tm)
		r := Fig14Row{T: tm, F1: probe.GoodputBytes - p1, F2: f2r.GoodputBytes - p2, F3: f3r.GoodputBytes - p3}
		t.Add(fmt.Sprint(int64(tm/sim.Millisecond)),
			fmt.Sprintf("%.1f", float64(r.F1)*8/1e6),
			fmt.Sprintf("%.1f", float64(r.F2)*8/1e6),
			fmt.Sprintf("%.1f", float64(r.F3)*8/1e6))
		p1, p2, p3 = probe.GoodputBytes, f2r.GoodputBytes, f3r.GoodputBytes
		rows = append(rows, r)
	}
	stop1, stop3 = true, true
	return t, rows, nil
}

// Safeguard is §V-D's fallback: with room for one group per switch, the
// second registration is rejected and a Chain broadcaster carries 1MB
// instead.
type Safeguard struct {
	Rejected error  // the second registration's error; nil if it was accepted
	Fallback string // the fallback broadcaster's name
	JCT      sim.Time
}

// SafeguardFallback runs the §V-D safeguard experiment on the testbed.
func SafeguardFallback(run Bcast) (Safeguard, error) {
	acc := core.DefaultAccelConfig()
	acc.MaxGroups = 1 // the second group must be rejected
	c := cepheus.NewTestbed(4, cepheus.Options{Accel: &acc})
	if _, err := c.NewGroup([]int{0, 1, 2, 3}, 0); err != nil {
		return Safeguard{}, fmt.Errorf("first group: %w", err)
	}
	var s Safeguard
	_, s.Rejected = c.NewGroup([]int{0, 1, 2, 3}, 0)
	// Fallback: the default AMcast approach takes over.
	fb, err := c.Broadcaster(cepheus.SchemeChain, []int{0, 1, 2, 3}, 4)
	if err != nil {
		return Safeguard{}, err
	}
	s.Fallback = fb.Name()
	s.JCT, err = run(c, fb, 0, 1<<20, "fallback/chain/1MB")
	return s, err
}

// ReduceTimes is one contribution size of the reduce extension: each
// reduction's latency.
type ReduceTimes struct {
	Size                      int
	Cepheus, Gather, Binomial sim.Time
}

// Reduce is the many-to-one extension on an 8-node testbed: in-network
// aggregation vs gather and binomial software reduction, across
// contribution sizes. Rank r contributes r+1; a wrong aggregate or a stalled
// reduction is an error.
func Reduce() (*exp.Table, []ReduceTimes, error) {
	const n = 8
	t := exp.NewTable("Extension: many-to-one reduction (8 nodes, in-network vs software)",
		"size", "cepheus-reduce", "gather", "binomial-reduce")
	baseline := func(mk func(*amcast.Comm) amcast.Reducer, size int) (sim.Time, error) {
		c := cepheus.NewTestbed(n, cepheus.Options{})
		comm, err := c.Comm(hosts(n))
		if err != nil {
			return 0, err
		}
		return runReduce(c, mk(comm), size, n)
	}
	var rows []ReduceTimes
	for _, size := range []int{8 << 10, 1 << 20, 16 << 20} {
		r := ReduceTimes{Size: size}
		var err error
		if r.Cepheus, err = cepheusReduce(n, size); err != nil {
			return nil, nil, err
		}
		if r.Gather, err = baseline(func(c *amcast.Comm) amcast.Reducer { return amcast.GatherReduce{C: c} }, size); err != nil {
			return nil, nil, err
		}
		if r.Binomial, err = baseline(func(c *amcast.Comm) amcast.Reducer { return amcast.BinomialReduce{C: c} }, size); err != nil {
			return nil, nil, err
		}
		t.Add(exp.FormatBytes(size), r.Cepheus.String(), r.Gather.String(), r.Binomial.String())
		rows = append(rows, r)
	}
	return t, rows, nil
}

// cepheusReduce measures one steady-state in-network reduction: the group
// is oriented once (Prime) before the timed run.
func cepheusReduce(n, size int) (sim.Time, error) {
	c := cepheus.NewTestbed(n, cepheus.Options{})
	g, err := c.NewGroup(hosts(n), 0)
	if err != nil {
		return 0, err
	}
	r := &amcast.CepheusReduce{Group: g}
	primed := false
	r.Prime(0, func() { primed = true })
	if err := c.Run(sim.MaxTime, func() bool { return primed }); err != nil {
		return 0, err
	}
	return runReduce(c, r, size, n)
}

// runReduce runs one reduction of size bytes to rank 0 and checks the
// aggregate.
func runReduce(c *cepheus.Cluster, r amcast.Reducer, size, n int) (sim.Time, error) {
	start := c.Now()
	var end sim.Time = -1
	total := math.NaN()
	r.Reduce(0, size, func(rank int) float64 { return float64(rank + 1) }, func(v float64) {
		total = v
		end = c.Now()
	})
	if err := c.Run(start+30*sim.Second, func() bool { return end >= 0 }); err != nil {
		return 0, fmt.Errorf("%s reduce stalled: %w", r.Name(), err)
	}
	if want := float64(n*(n+1)) / 2; total != want {
		return 0, fmt.Errorf("%s computed %v, want %v", r.Name(), total, want)
	}
	return end - start, nil
}

// PSRuns is the PS-training loop under each scheme.
type PSRuns struct{ Cepheus, AMcast ps.Result }

// PSTrain is the parameter-server training loop, 6 workers and a 64MB
// model for 4 iterations: model multicast down, gradient reduction up.
// Cepheus runs it in-network, AMcast as chain broadcast plus unicast gather.
// A wrong gradient aggregate is an error.
func PSTrain() (*exp.Table, PSRuns, error) {
	t := exp.NewTable("Extension: PS training (6 workers, 64MB model, 4 iterations)",
		"scheme", "JCT", "bcast", "reduce", "compute")
	var r PSRuns
	for _, s := range []struct {
		scheme ps.Scheme
		res    *ps.Result
	}{{ps.SchemeCepheus, &r.Cepheus}, {ps.SchemeAMcast, &r.AMcast}} {
		c, err := ps.NewTestbed(ps.DefaultConfig(6), s.scheme)
		if err != nil {
			return nil, r, err
		}
		res, err := c.Run()
		if err != nil {
			return nil, r, err
		}
		for _, got := range res.GradSums {
			if got != c.ExpectedGradSum() {
				return nil, r, fmt.Errorf("%s: wrong gradient aggregate %v", s.scheme, got)
			}
		}
		*s.res = res
		t.Add(string(s.scheme), res.JCT.String(), res.Bcast.String(), res.Reduce.String(), res.Compute.String())
	}
	return t, r, nil
}
