package topo

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestTestbedWiring(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := Testbed(eng, 4)
	if len(n.Hosts) != 4 || len(n.Switches) != 1 {
		t.Fatalf("testbed has %d hosts, %d switches", len(n.Hosts), len(n.Switches))
	}
	for i, h := range n.Hosts {
		if h.IP != HostIP(i) {
			t.Errorf("host %d IP = %v", i, h.IP)
		}
		if n.LeafOf(h) != n.Switches[0] {
			t.Errorf("host %d not on the ToR", i)
		}
	}
}

func TestHostByIP(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := Testbed(eng, 4)
	if n.HostByIP(HostIP(2)) != n.Hosts[2] {
		t.Fatal("HostByIP lookup failed")
	}
	if n.HostByIP(simnet.Addr(1)) != nil {
		t.Fatal("bogus IP resolved to a host")
	}
	if n.HostByIP(HostIP(4)) != nil {
		t.Fatal("out-of-range IP resolved to a host")
	}
}

func TestAllocMcstIDPerNetwork(t *testing.T) {
	t.Parallel()
	a, b := Testbed(sim.New(1), 4), Testbed(sim.New(1), 4)
	for i, want := range []simnet.Addr{simnet.MulticastBase + 1, simnet.MulticastBase + 2} {
		if got := a.AllocMcstID(); got != want || !got.IsMulticast() {
			t.Errorf("allocation %d on a = %#x, want %#x", i, uint32(got), uint32(want))
		}
	}
	if got := b.AllocMcstID(); got != simnet.MulticastBase+1 {
		t.Errorf("first allocation on b = %#x, want %#x: IDs are per network", uint32(got), uint32(simnet.MulticastBase+1))
	}
}

func TestFatTreeShape(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	k := 4
	n := FatTree(eng, k)
	if want := k * k * k / 4; len(n.Hosts) != want {
		t.Fatalf("hosts = %d, want %d", len(n.Hosts), want)
	}
	if want := k*k + k*k/4; len(n.Switches) != want {
		t.Fatalf("switches = %d, want %d", len(n.Switches), want)
	}
	// Edge and agg switches have k ports, cores have k ports.
	for _, sw := range n.Switches {
		if sw.NumPorts() != k {
			t.Fatalf("%s has %d ports, want %d", sw.Name, sw.NumPorts(), k)
		}
	}
}

func TestFatTreeOddArityPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("odd arity did not panic")
		}
	}()
	FatTree(sim.New(1), 3)
}

func deliver(t *testing.T, n *Network, from, to int) sim.Time {
	t.Helper()
	eng := n.Eng
	var at sim.Time = -1
	n.Hosts[to].Handler = func(p *simnet.Packet) { at = eng.Now() }
	start := eng.Now()
	n.Hosts[from].Send(&simnet.Packet{Type: simnet.Data, Src: HostIP(from), Dst: HostIP(to), Payload: 64})
	eng.Run(sim.MaxTime, nil)
	if at < 0 {
		t.Fatalf("packet %d->%d not delivered", from, to)
	}
	return at - start
}

func TestFatTreeAllPairsReachable(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := FatTree(eng, 4)
	for from := 0; from < len(n.Hosts); from++ {
		for to := 0; to < len(n.Hosts); to++ {
			if from == to {
				continue
			}
			deliver(t, n, from, to)
		}
	}
}

func TestFatTreeHopCounts(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := FatTree(eng, 4)
	// Same edge switch: host -> edge -> host = 2 links.
	dSame := deliver(t, n, 0, 1)
	// Same pod, different edge: 4 links.
	dPod := deliver(t, n, 0, 2)
	// Different pod: 6 links.
	dFar := deliver(t, n, 0, 4)
	if !(dSame < dPod && dPod < dFar) {
		t.Fatalf("hop-count ordering violated: same-edge %v, same-pod %v, cross-pod %v", dSame, dPod, dFar)
	}
	txPlusProp := n.Hosts[0].NIC.TxTime(64+simnet.WireOverhead) + DefaultPropDelay
	if want := 2 * txPlusProp; dSame != want {
		t.Fatalf("same-edge latency %v, want %v", dSame, want)
	}
	if want := 6 * txPlusProp; dFar != want {
		t.Fatalf("cross-pod latency %v, want %v", dFar, want)
	}
}

func TestFatTreeECMPPresence(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := FatTree(eng, 4)
	// An edge switch should have 2 equal-cost uplinks toward a host in a
	// different pod.
	leaf := n.LeafOf(n.Hosts[0])
	far := HostIP(len(n.Hosts) - 1)
	if got := len(leaf.Route(far)); got != 2 {
		t.Fatalf("edge switch has %d ECMP uplinks to cross-pod host, want 2", got)
	}
	// And exactly 1 port toward its own directly connected host.
	if got := len(leaf.Route(HostIP(0))); got != 1 {
		t.Fatalf("edge switch has %d routes to local host, want 1", got)
	}
}

func TestFatTree16Scale(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("k=16 build is slow in -short mode")
	}
	eng := sim.New(1)
	n := FatTree(eng, 16)
	if len(n.Hosts) != 1024 {
		t.Fatalf("k=16 fat-tree has %d hosts, want 1024", len(n.Hosts))
	}
	deliver(t, n, 0, 1023)
}

func TestLeafSpineShape(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := LeafSpine(eng, 4, 2, 8) // 2:1 oversubscribed
	if len(n.Hosts) != 32 || len(n.Switches) != 6 {
		t.Fatalf("hosts=%d switches=%d", len(n.Hosts), len(n.Switches))
	}
	// Cross-leaf traffic has 2 ECMP spines.
	leaf := n.LeafOf(n.Hosts[0])
	if got := len(leaf.Route(HostIP(31))); got != 2 {
		t.Fatalf("ECMP width %d, want 2 spines", got)
	}
}

func TestLeafSpineAllPairs(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := LeafSpine(eng, 3, 3, 2)
	for from := 0; from < len(n.Hosts); from++ {
		deliver(t, n, from, (from+3)%len(n.Hosts))
	}
}

// TestFatTreeCrossPodLatency: a cross-pod packet crosses 6 links, each
// costing its serialization plus propagation delay and nothing more.
func TestFatTreeCrossPodLatency(t *testing.T) {
	t.Parallel()
	n := FatTree(sim.New(1), 4)
	from, to := 0, 4 // different pods: 6 links
	txPlusProp := n.Hosts[from].NIC.TxTime(64+simnet.WireOverhead) + DefaultPropDelay
	if got, want := deliver(t, n, from, to), 6*txPlusProp; got != want {
		t.Fatalf("cross-pod latency %v, want %v", got, want)
	}
}

// TestFatTreePathExists: one crashed aggregation switch leaves every path
// in place, and crashing both of a k=4 pod's aggregation switches cuts its
// hosts off from every other pod and from each other across edges, while
// hosts under one edge stay connected.
func TestFatTreePathExists(t *testing.T) {
	t.Parallel()
	n := FatTree(sim.New(1), 4)
	byName := func(name string) *simnet.Switch {
		for _, sw := range n.Switches {
			if sw.Name == name {
				return sw
			}
		}
		t.Fatalf("no switch %s", name)
		return nil
	}
	h := n.Hosts // pod 0 holds h0-h3: h0, h1 under edge-p0-0, h2, h3 under edge-p0-1
	byName("agg-p0-0").Crash()
	if !n.PathExists(h[0], h[4]) || !n.PathExists(h[0], h[2]) {
		t.Fatal("one crashed aggregation switch cut a path its sibling still serves")
	}
	byName("agg-p0-1").Crash()
	if n.PathExists(h[0], h[4]) {
		t.Fatal("PathExists true across pods with every pod-0 aggregation switch crashed")
	}
	if n.PathExists(h[0], h[2]) {
		t.Fatal("PathExists true across pod-0 edges with every pod-0 aggregation switch crashed")
	}
	if !n.PathExists(h[0], h[1]) {
		t.Fatal("hosts under one edge switch lost their path")
	}
}

func TestLeafSpineBadDimensionsPanic(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("zero spines accepted")
		}
	}()
	LeafSpine(sim.New(1), 2, 0, 4)
}
