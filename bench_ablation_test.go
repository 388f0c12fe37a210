package cepheus

// Ablation benchmarks for the design choices DESIGN.md §4 calls out: the
// ACK-aggregation trigger condition, retransmit filtering, CNP filtering,
// hierarchical feedback state, single-MFT source switching, and chain slice
// count sensitivity.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// ablationCluster builds a 4-host testbed with a tweaked accelerator.
func ablationCluster(mut func(*core.AccelConfig)) (*Cluster, *core.Group) {
	acc := core.DefaultAccelConfig()
	if mut != nil {
		mut(&acc)
	}
	c := NewTestbed(4, Options{Accel: &acc})
	g, err := c.NewGroup([]int{0, 1, 2, 3}, 0)
	if err != nil {
		panic(err)
	}
	return c, g
}

func mcast(c *Cluster, g *core.Group, size int) {
	b := &amcastCepheus{g}
	c.RunBcast(b, 0, size)
}

// amcastCepheus is a minimal local adapter to avoid importing amcast just
// for the ablations (and to keep OnMessage wiring explicit).
type amcastCepheus struct{ g *core.Group }

func (*amcastCepheus) Name() string { return "cepheus" }
func (a *amcastCepheus) Bcast(root, size int, done func()) {
	remaining := len(a.g.Members) - 1
	for i, m := range a.g.Members {
		if i == root {
			continue
		}
		m.QP.OnMessage = func(roce.Message) {
			remaining--
			if remaining == 0 {
				done()
			}
		}
	}
	a.g.Members[root].QP.PostSend(size, nil)
}

// BenchmarkAblationAckTrigger compares the trigger condition against naive
// per-ACK forwarding: ACKs received by the sender for a 16MB multicast.
func BenchmarkAblationAckTrigger(b *testing.B) {
	run := func(naive bool) (senderAcks, inflow uint64) {
		c, g := ablationCluster(func(a *core.AccelConfig) { a.NaiveAckForwarding = naive })
		mcast(c, g, 16<<20)
		return c.RNICs[0].Stats.AcksRecv, c.Accels[0].Stats.AcksIn
	}
	var trig, naive uint64
	for i := 0; i < b.N; i++ {
		trig, _ = run(false)
		var in uint64
		naive, in = run(true)
		if i == 0 {
			t := exp.NewTable("Ablation: ACK aggregation trigger condition (16MB, 3 receivers)",
				"variant", "ACKs into switch", "ACKs to sender")
			t.Add("trigger condition", fmt.Sprint(in), fmt.Sprint(trig))
			t.Add("naive forwarding", fmt.Sprint(in), fmt.Sprint(naive))
			fmt.Print(t)
		}
	}
	b.ReportMetric(float64(naive)/float64(trig), "ack-reduction-x")
	if naive <= trig {
		b.Error("trigger condition did not reduce sender-side ACKs")
	}
}

// BenchmarkAblationRetransmitFilter measures duplicate deliveries with the
// filter on/off under deterministic single-receiver loss.
func BenchmarkAblationRetransmitFilter(b *testing.B) {
	run := func(disable bool) (dups uint64) {
		c, g := ablationCluster(func(a *core.AccelConfig) { a.DisableRetransFilter = disable })
		// Drop one packet toward member 1 only.
		h := c.Net.Hosts[1]
		orig := h.Handler
		dropped := false
		h.Handler = func(p *simnet.Packet) {
			if p.Type == simnet.Data && p.PSN == 100 && !dropped {
				dropped = true
				return
			}
			orig(p)
		}
		mcast(c, g, 4<<20)
		for _, r := range c.RNICs[1:4] {
			dups += r.Stats.DupData
		}
		return dups
	}
	var on, off uint64
	for i := 0; i < b.N; i++ {
		on = run(false)
		off = run(true)
		if i == 0 {
			t := exp.NewTable("Ablation: retransmit filtering (one loss, go-back-N)",
				"variant", "duplicate packets at receivers")
			t.Add("filter on", fmt.Sprint(on))
			t.Add("filter off", fmt.Sprint(off))
			fmt.Print(t)
		}
	}
	if off <= on {
		b.Error("retransmit filter showed no duplicate suppression")
	}
}

// BenchmarkAblationCNPFilter measures CNPs reaching the multicast sender
// with filtering on/off while receivers are ECN-marked.
func BenchmarkAblationCNPFilter(b *testing.B) {
	run := func(disable bool) (senderCNPs uint64) {
		acc := core.DefaultAccelConfig()
		acc.DisableCNPFilter = disable
		// Measure the raw CNP streams: no sender reaction, so congestion
		// (and marking) persists for the whole transfer.
		tr := roce.DefaultConfig()
		c := NewTestbed(4, Options{Accel: &acc, Transport: &tr})
		for _, sw := range c.Net.Switches {
			for _, pt := range sw.Ports {
				pt.ECN = simnet.ECNConfig{Enabled: true, KminBytes: 32 << 10, KmaxBytes: 128 << 10, PMax: 0.5}
			}
		}
		g, err := c.NewGroup([]int{0, 1, 2, 3}, 0)
		if err != nil {
			panic(err)
		}
		// Congest two receiver downlinks with background unicasts from
		// member 3, so CNPs arrive on multiple MDT paths.
		for _, dst := range []int{1, 2} {
			sq := c.RNICs[3].CreateQP()
			rq := c.RNICs[dst].CreateQP()
			sq.Connect(c.Host(dst).IP, rq.QPN)
			rq.Connect(c.Host(3).IP, sq.QPN)
			stop := false
			var post func()
			post = func() {
				if !stop {
					sq.PostSend(1<<20, post)
				}
			}
			post()
			defer func() { stop = true }()
		}
		mcast(c, g, 64<<20)
		return c.RNICs[0].Stats.CNPsRecv
	}
	var on, off uint64
	for i := 0; i < b.N; i++ {
		on = run(false)
		off = run(true)
		if i == 0 {
			t := exp.NewTable("Ablation: CNP filtering (CNP magnification)",
				"variant", "CNPs at sender")
			t.Add("filter on (most congested path only)", fmt.Sprint(on))
			t.Add("filter off (all paths)", fmt.Sprint(off))
			fmt.Print(t)
		}
	}
	if off < on {
		b.Error("CNP filter increased sender CNPs")
	}
}

// BenchmarkAblationStateScaling contrasts Cepheus' per-path (hierarchical)
// feedback state with hypothetical per-receiver tracking as group size
// grows on the fat-tree.
func BenchmarkAblationStateScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Ablation: switch feedback state vs group size (k=16 fat-tree)",
			"group size", "max MFT entries/switch (hierarchical)", "per-receiver entries (naive)")
		for _, gs := range []int{8, 64, 512} {
			c := NewFatTree(16, Options{})
			nodes := make([]int, gs)
			for j := range nodes {
				nodes[j] = j
			}
			g, err := c.NewGroup(nodes, 0)
			if err != nil {
				b.Fatal(err)
			}
			maxEntries := 0
			for _, a := range c.Accels {
				if m := a.MFT(g.ID); m != nil && len(m.Paths) > maxEntries {
					maxEntries = len(m.Paths)
				}
			}
			t.Add(fmt.Sprint(gs), fmt.Sprint(maxEntries), fmt.Sprint(gs))
			if maxEntries > 16 {
				b.Errorf("group %d: %d entries exceeds the port count bound", gs, maxEntries)
			}
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
}

// BenchmarkAblationSourceSwitching compares MFT count under single-MFT
// source switching against one group per source.
func BenchmarkAblationSourceSwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Cepheus: one group, four sources taking turns.
		c, g := ablationCluster(nil)
		last := 0
		for src := 0; src < 4; src++ {
			if src != last {
				g.SwitchSource(last, src)
				last = src
			}
			mcast2(c, g, src, 1<<20)
		}
		single := c.Accels[0].Groups()

		// Naive: one group per source.
		c2 := NewTestbed(4, Options{})
		for src := 0; src < 4; src++ {
			if _, err := c2.NewGroup([]int{0, 1, 2, 3}, src); err != nil {
				b.Fatal(err)
			}
		}
		naive := c2.Accels[0].Groups()
		if i == 0 {
			t := exp.NewTable("Ablation: source switching (4 sources)",
				"approach", "MFTs on switch")
			t.Add("single MFT + PSN sync", fmt.Sprint(single))
			t.Add("one group per source", fmt.Sprint(naive))
			fmt.Print(t)
		}
		if single != 1 || naive != 4 {
			b.Errorf("MFT counts: single=%d naive=%d", single, naive)
		}
	}
}

func mcast2(c *Cluster, g *core.Group, root, size int) {
	b := &amcastCepheus{g}
	start := c.Now()
	done := false
	b.Bcast(root, size, func() { done = true })
	if err := c.Run(start+10*sim.Second, func() bool { return done }); err != nil {
		panic("ablation mcast stalled: " + err.Error())
	}
}

// BenchmarkAblationChainSlices sweeps the Chain slice count the paper fixes
// at 4, showing the latency/CPU trade-off that motivates the choice.
func BenchmarkAblationChainSlices(b *testing.B) {
	const size = 64 << 20
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Ablation: chain slice count (64MB, 4 nodes)",
			"slices", "JCT(ms)", "relay posts")
		for _, s := range []int{1, 2, 4, 16, 64} {
			c := NewTestbed(4, Options{})
			br, err := c.Broadcaster(SchemeChain, []int{0, 1, 2, 3}, s)
			if err != nil {
				b.Fatal(err)
			}
			jct := c.RunBcast(br, 0, size)
			t.Add(fmt.Sprint(s), fmt.Sprintf("%.2f", jct.Millis()), fmt.Sprint(3*s))
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
}
