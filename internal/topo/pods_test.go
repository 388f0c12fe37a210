package topo

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestFatTreeDomains pins the shape of the fat-tree's partition domains:
// one per pod (its k/2 edges and k/2 aggs, in build order) followed by one
// per core group (the k/2 cores attached to agg j of every pod), covering
// every switch exactly once.
func TestFatTreeDomains(t *testing.T) {
	eng := sim.New(1)
	k := 4
	half := k / 2
	n := FatTree(eng, k)
	if want := k + half; len(n.Domains) != want {
		t.Fatalf("domains = %d, want %d", len(n.Domains), want)
	}
	seen := make(map[*simnet.Switch]int)
	for d, sws := range n.Domains {
		want := k // pod: k/2 edges + k/2 aggs
		if d >= k {
			want = half // core group
		}
		if len(sws) != want {
			t.Errorf("domain %d has %d switches, want %d", d, len(sws), want)
		}
		for _, sw := range sws {
			if prev, dup := seen[sw]; dup {
				t.Errorf("%s in domains %d and %d", sw.Name, prev, d)
			}
			seen[sw] = d
		}
	}
	if len(seen) != len(n.Switches) {
		t.Fatalf("domains cover %d switches, topology has %d", len(seen), len(n.Switches))
	}
	// Inter-domain links must all be agg↔core trunks: an edge switch's
	// switch-peers live in its own domain.
	for d, sws := range n.Domains {
		for _, sw := range sws {
			for _, pt := range sw.Ports {
				psw, ok := pt.Peer.Dev.(*simnet.Switch)
				if !ok || seen[psw] == d {
					continue
				}
				if d < k == (seen[psw] < k) {
					t.Errorf("cross-domain link %s↔%s joins two domains of the same tier", sw.Name, psw.Name)
				}
			}
		}
	}
}

// TestPartitionPodsColocation: partitioned by Domains, every switch lands on
// its domain's LP (LP i = domain i, in build order) and every host lands on
// its leaf's LP.
func TestPartitionPodsColocation(t *testing.T) {
	eng := sim.New(1)
	n := FatTree(eng, 4)
	par := sim.NewParallel(1, 1)
	la := n.Partition(par, n.Domains)
	if par.NumLPs() != len(n.Domains) {
		t.Fatalf("NumLPs = %d, want %d", par.NumLPs(), len(n.Domains))
	}
	if la != DefaultPropDelay {
		t.Fatalf("lookahead = %v, want %v", la, DefaultPropDelay)
	}
	for d, sws := range n.Domains {
		for _, sw := range sws {
			if sw.Engine().LP() != d {
				t.Errorf("%s on LP %d, want domain %d", sw.Name, sw.Engine().LP(), d)
			}
		}
	}
	for _, h := range n.Hosts {
		if h.Engine().LP() != n.LeafOf(h).Engine().LP() {
			t.Errorf("host %s on LP %d, leaf %s on LP %d",
				h.Name, h.Engine().LP(), n.LeafOf(h).Name, n.LeafOf(h).Engine().LP())
		}
	}
}

// TestPartitionPodsDeterministicNumbering: the LP assignment is a pure
// function of the topology, never of the worker count.
func TestPartitionPodsDeterministicNumbering(t *testing.T) {
	assign := func(workers int) map[string]int {
		eng := sim.New(1)
		n := FatTree(eng, 4)
		par := sim.NewParallel(1, workers)
		n.Partition(par, n.Domains)
		m := make(map[string]int)
		for _, sw := range n.Switches {
			m[sw.Name] = sw.Engine().LP()
		}
		return m
	}
	ref := assign(1)
	for _, w := range []int{2, 4, 8} {
		got := assign(w)
		for name, lp := range ref {
			if got[name] != lp {
				t.Fatalf("workers=%d: %s on LP %d, want %d", w, name, got[name], lp)
			}
		}
	}
}

// TestPartitionPodsTrunkLookahead: with longer core trunks, the cross-LP
// lookahead is exactly the trunk delay — every shorter link is intra-LP —
// and it can never be below the minimum inter-domain propagation delay.
func TestPartitionPodsTrunkLookahead(t *testing.T) {
	eng := sim.New(1)
	coreProp := 3 * DefaultPropDelay
	n := FatTreeWithTrunk(eng, 4, DefaultLinkRate, DefaultPropDelay, coreProp)
	par := sim.NewParallel(1, 1)
	la := n.Partition(par, n.Domains)
	if la != coreProp {
		t.Fatalf("lookahead = %v, want trunk delay %v", la, coreProp)
	}
}

// TestPartitionPodsFallback: a topology without declared domains partitions
// per switch, exactly as a nil domain list does.
func TestPartitionPodsFallback(t *testing.T) {
	eng := sim.New(1)
	n := LeafSpine(eng, 2, 2, 4)
	if n.Domains != nil {
		t.Fatal("leaf-spine unexpectedly declares domains")
	}
	par := sim.NewParallel(1, 1)
	la := n.Partition(par, n.Domains)
	if par.NumLPs() != len(n.Switches) {
		t.Fatalf("fallback NumLPs = %d, want per-switch %d", par.NumLPs(), len(n.Switches))
	}
	if la != DefaultPropDelay {
		t.Fatalf("fallback lookahead = %v, want %v", la, DefaultPropDelay)
	}
}
