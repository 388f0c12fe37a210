package amcast

import (
	"testing"

	"repro/internal/core"
	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/topo"
)

// testComm builds an n-host testbed and a communicator over all hosts.
func testComm(t *testing.T, n int) (*sim.Engine, *topo.Network, *Comm) {
	t.Helper()
	eng := sim.New(1)
	net := topo.Testbed(eng, n)
	nodes := make([]*Node, n)
	for i, h := range net.Hosts {
		nodes[i] = &Node{Host: h, RNIC: roce.NewRNIC(h, roce.DefaultConfig())}
	}
	return eng, net, NewComm(nodes)
}

// runBcast runs one broadcast and returns its JCT.
func runBcast(t *testing.T, eng *sim.Engine, b Broadcaster, root, size int) sim.Time {
	t.Helper()
	start := eng.Now()
	var end sim.Time = -1
	b.Bcast(root, size, func() { end = eng.Now() })
	eng.RunUntil(start + 10*sim.Second)
	if end < 0 {
		t.Fatalf("%s bcast of %dB never completed", b.Name(), size)
	}
	return end - start
}

func TestAllBroadcastersDeliver(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		eng, _, c := testComm(t, n)
		bs := []Broadcaster{
			NUnicast{c},
			Binomial{C: c},
			Chain{C: c, Slices: 4},
			Chain{C: c, Slices: 1},
			RDMC{C: c, Blocks: 8},
			Long{c},
		}
		for _, b := range bs {
			for root := 0; root < n; root += max(1, n-1) {
				jct := runBcast(t, eng, b, root, 64<<10)
				if jct <= 0 {
					t.Fatalf("n=%d %s root=%d: nonpositive JCT", n, b.Name(), root)
				}
			}
		}
	}
}

func TestSingleNodeBcastTrivial(t *testing.T) {
	eng, _, c := testComm(t, 1)
	for _, b := range []Broadcaster{NUnicast{c}, Binomial{C: c}, Chain{C: c, Slices: 4}, RDMC{C: c, Blocks: 4}, Long{c}} {
		called := false
		b.Bcast(0, 100, func() { called = true })
		eng.Run(sim.MaxTime, nil)
		if !called {
			t.Fatalf("%s: single-node bcast did not complete immediately", b.Name())
		}
	}
}

func TestChainLatencyLinearInN(t *testing.T) {
	// Small message: Chain JCT grows ~linearly with node count.
	jct := func(n int) sim.Time {
		eng, _, c := testComm(t, n)
		return runBcast(t, eng, Chain{C: c, Slices: 1}, 0, 64)
	}
	j4, j8 := jct(4), jct(8)
	if ratio := float64(j8) / float64(j4); ratio < 1.8 || ratio > 2.8 {
		t.Fatalf("chain latency ratio 8/4 nodes = %.2f, want ~2.3 (linear)", ratio)
	}
}

func TestBinomialLatencyLogarithmic(t *testing.T) {
	jct := func(n int) sim.Time {
		eng, _, c := testComm(t, n)
		return runBcast(t, eng, Binomial{C: c}, 0, 64)
	}
	j4, j16 := jct(4), jct(16)
	// log2: 2 rounds vs 4 rounds -> ratio ~2, far from the 4x of linear.
	if ratio := float64(j16) / float64(j4); ratio > 3 {
		t.Fatalf("binomial latency ratio 16/4 nodes = %.2f; not logarithmic", ratio)
	}
}

func TestBinomialBeatsChainSmall(t *testing.T) {
	eng, _, c := testComm(t, 8)
	chain := runBcast(t, eng, Chain{C: c, Slices: 1}, 0, 64)
	bt := runBcast(t, eng, Binomial{C: c}, 0, 64)
	if bt >= chain {
		t.Fatalf("BT (%v) should beat Chain (%v) on small messages", bt, chain)
	}
}

func TestChainBeatsBinomialLarge(t *testing.T) {
	eng, _, c := testComm(t, 4)
	size := 64 << 20
	bt := runBcast(t, eng, Binomial{C: c}, 0, size)
	chain := runBcast(t, eng, Chain{C: c, Slices: 4}, 0, size)
	if chain >= bt {
		t.Fatalf("Chain (%v) should beat BT (%v) on large messages", chain, bt)
	}
}

func TestNUnicastSenderBottleneck(t *testing.T) {
	eng, net, c := testComm(t, 4)
	size := 32 << 20
	jct := runBcast(t, eng, NUnicast{c}, 0, size)
	// Three copies leave the root's 100G link: at least 3 serializations.
	minTime := net.Hosts[0].NIC.TxTime(3 * size)
	if jct < minTime {
		t.Fatalf("n-unicast JCT %v beat the physical sender bottleneck %v", jct, minTime)
	}
}

func TestRDMCFasterThanNUnicastLarge(t *testing.T) {
	eng, _, c := testComm(t, 4)
	size := 64 << 20
	nu := runBcast(t, eng, NUnicast{c}, 0, size)
	rd := runBcast(t, eng, RDMC{C: c, Blocks: 16}, 0, size)
	if rd >= nu {
		t.Fatalf("RDMC (%v) should beat n-unicast (%v) on large messages", rd, nu)
	}
}

func TestLongDeliversEveryChunk(t *testing.T) {
	for n := 2; n <= 6; n++ {
		eng, _, c := testComm(t, n)
		jct := runBcast(t, eng, Long{c}, 1%n, 1<<20)
		if jct <= 0 {
			t.Fatalf("long n=%d: bad JCT", n)
		}
	}
}

func TestCommReuseAcrossOps(t *testing.T) {
	eng, _, c := testComm(t, 4)
	b := Chain{C: c, Slices: 4}
	j1 := runBcast(t, eng, b, 0, 1<<20)
	j2 := runBcast(t, eng, b, 2, 1<<20)
	if j1 <= 0 || j2 <= 0 {
		t.Fatal("reused communicator failed")
	}
	// QPs must be reused, not leaked: 4 nodes chain uses at most n pairs
	// per direction over both roots.
	if len(c.sendQP) > 12 {
		t.Fatalf("%d QP pairs created; communicator not reusing connections", len(c.sendQP))
	}
}

func TestConcurrentCollectivePanics(t *testing.T) {
	eng, _, c := testComm(t, 4)
	Chain{C: c, Slices: 4}.Bcast(0, 1<<20, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("second concurrent collective did not panic")
		}
	}()
	Binomial{C: c}.Bcast(0, 100, func() {})
	eng.Run(sim.MaxTime, nil)
}

func TestCepheusBroadcaster(t *testing.T) {
	eng := sim.New(1)
	net := topo.Testbed(eng, 4)
	cfg := roce.DefaultConfig()
	var members []*core.Member
	var agents []*core.Agent
	for _, h := range net.Hosts {
		r := roce.NewRNIC(h, cfg)
		agents = append(agents, core.NewAgent(r))
		members = append(members, &core.Member{Host: h, RNIC: r, QP: r.CreateQP()})
	}
	core.Attach(net.Switches[0], core.DefaultAccelConfig())
	g := core.NewGroup(eng, net.AllocMcstID(), members, 0, agents)
	g.Register(10*sim.Millisecond, func(err error) {
		if err != nil {
			t.Fatalf("register: %v", err)
		}
	})
	eng.RunUntil(10 * sim.Millisecond)
	b := &Cepheus{Group: g}
	jct := runBcast(t, eng, b, 0, 8<<20)
	// Compare with chain on the same topology shape.
	eng2, _, c2 := testComm(t, 4)
	chain := runBcast(t, eng2, Chain{C: c2, Slices: 4}, 0, 8<<20)
	if jct >= chain {
		t.Fatalf("Cepheus (%v) should beat Chain (%v) on 8MB", jct, chain)
	}
}

func TestAnalyzeFig1d(t *testing.T) {
	rows := AnalyzeFig1d(4, 2)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Analysis{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	nm := byName["nmcast/cepheus"]
	nu := byName["n-unicast"]
	bt := byName["binomial-tree"]
	ch := byName["chain"]
	if nm.TotalHops >= nu.TotalHops {
		t.Fatal("nmcast must minimize total hops")
	}
	if nm.SenderCopies != 1 || ch.SenderCopies != 1 {
		t.Fatal("nmcast and chain transmit once from the sender")
	}
	if nu.SenderCopies != 4 {
		t.Fatal("n-unicast sender copies")
	}
	if !(nm.StackTraversals < bt.StackTraversals && bt.StackTraversals < ch.StackTraversals) {
		t.Fatal("stack traversal ordering nmcast < bt < chain violated")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
