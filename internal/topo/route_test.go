package topo

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// routeRef computes, independently of buildRoutes, the ECMP port set each
// switch should hold toward host h: one plain BFS over the device graph
// from h itself (no per-leaf memo, hosts do not forward), then, at every
// switch, the usable ports whose peer device is one hop closer to h, in
// port order.
func routeRef(n *Network, h *simnet.Host) map[*simnet.Switch][]int {
	crashed := func(d simnet.Device) bool {
		sw, ok := d.(*simnet.Switch)
		return ok && sw.Crashed()
	}
	usable := func(pt *simnet.Port) bool {
		return !pt.Down() && !pt.Peer.Down() && !crashed(pt.Dev) && !crashed(pt.Peer.Dev)
	}
	dist := map[simnet.Device]int{h: 0}
	queue := []simnet.Device{h}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		ports := []*simnet.Port{}
		switch v := d.(type) {
		case *simnet.Host:
			ports = append(ports, v.NIC)
		case *simnet.Switch:
			ports = v.Ports
		}
		for _, pt := range ports {
			peer, ok := pt.Peer.Dev.(*simnet.Switch)
			if _, seen := dist[peer]; !ok || seen || !usable(pt) {
				continue
			}
			dist[peer] = dist[d] + 1
			queue = append(queue, peer)
		}
	}
	want := map[*simnet.Switch][]int{}
	for _, sw := range n.Switches {
		d, ok := dist[sw]
		if !ok {
			continue
		}
		for _, pt := range sw.Ports {
			if pd, ok := dist[pt.Peer.Dev]; ok && pd == d-1 && usable(pt) {
				want[sw] = append(want[sw], pt.ID)
			}
		}
	}
	return want
}

// checkRoutes compares every switch's Route toward every host with the
// reference, and checks that addresses no host owns have no route.
func checkRoutes(t *testing.T, n *Network) {
	t.Helper()
	for _, h := range n.Hosts {
		want := routeRef(n, h)
		for _, sw := range n.Switches {
			if got := sw.Route(h.IP); !slices.Equal(got, want[sw]) {
				t.Fatalf("%s: Route(%s) = %v, reference %v", sw.Name, h.IP, got, want[sw])
			}
		}
	}
	for _, sw := range n.Switches {
		for _, a := range []simnet.Addr{HostIP(-1), HostIP(len(n.Hosts)), simnet.MulticastBase + 1, 1} {
			if got := sw.Route(a); got != nil {
				t.Fatalf("%s: Route(%s) = %v for an address no host owns", sw.Name, a, got)
			}
		}
	}
}

func TestRoutesMatchReference(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name  string
		build func(*sim.Engine) *Network
	}{
		{"fattree-k4", func(e *sim.Engine) *Network { return FatTree(e, 4) }},
		{"fattree-k8", func(e *sim.Engine) *Network { return FatTree(e, 8) }},
		{"leafspine-3x2x4", func(e *sim.Engine) *Network { return LeafSpine(e, 3, 2, 4) }},
		{"leafspine-4x3x1", func(e *sim.Engine) *Network { return LeafSpine(e, 4, 3, 1) }},
		{"testbed-4", func(e *sim.Engine) *Network { return Testbed(e, 4) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := c.build(sim.New(1))
			checkRoutes(t, n)
			// A rebuild on a healthy fabric reproduces the same tables.
			n.RebuildRoutes()
			checkRoutes(t, n)
		})
	}
}

// TestRebuiltRoutesMatchReference takes fabric elements down one at a time
// — an aggregation↔core trunk, a host access link, an aggregation switch,
// a core switch — and checks the rebuilt FIBs against the reference after
// each step, then after everything comes back.
func TestRebuiltRoutesMatchReference(t *testing.T) {
	t.Parallel()
	n := FatTree(sim.New(1), 4)
	sw := func(name string) *simnet.Switch {
		for _, s := range n.Switches {
			if s.Name == name {
				return s
			}
		}
		panic(name)
	}
	linkDown := func(pt *simnet.Port, down bool) {
		pt.SetDown(down)
		pt.Peer.SetDown(down)
	}
	var trunk *simnet.Port
	for _, pt := range sw("agg-p1-0").Ports {
		if peer, ok := pt.Peer.Dev.(*simnet.Switch); ok && peer.Name == "core-1" {
			trunk = pt
		}
	}
	steps := []struct {
		name string
		do   func(down bool)
	}{
		{"trunk agg-p1-0/core-1", func(d bool) { linkDown(trunk, d) }},
		{"access link h5", func(d bool) { linkDown(n.Hosts[5].NIC, d) }},
		{"crash agg-p2-1", func(d bool) {
			if d {
				sw("agg-p2-1").Crash()
			} else {
				sw("agg-p2-1").Restart()
			}
		}},
		{"crash core-3", func(d bool) {
			if d {
				sw("core-3").Crash()
			} else {
				sw("core-3").Restart()
			}
		}},
	}
	for _, s := range steps {
		s.do(true)
		n.RebuildRoutes()
		t.Run(fmt.Sprintf("down %s", s.name), func(t *testing.T) { checkRoutes(t, n) })
	}
	if r := n.LeafOf(n.Hosts[0]).Route(n.Hosts[5].IP); r != nil {
		t.Fatalf("route %v to a host whose access link is down", r)
	}
	for _, s := range steps {
		s.do(false)
	}
	n.RebuildRoutes()
	checkRoutes(t, n)
	fresh := FatTree(sim.New(1), 4)
	for i, s := range n.Switches {
		for _, h := range n.Hosts {
			if got, want := s.Route(h.IP), fresh.Switches[i].Route(h.IP); !slices.Equal(got, want) {
				t.Fatalf("%s: restored Route(%s) = %v, fresh fabric has %v", s.Name, h.IP, got, want)
			}
		}
	}
}

// TestFatTreeFIBFootprint pins the FIB's shape on the paper's fat-trees:
// each switch interns at most k+1 distinct equal-cost port sets (a core
// switch has one down port per pod, an edge or aggregation switch one set
// per port below it plus one up-set), each FIB entry is a 2-byte index into
// them, and hosts behind one leaf share the interned set on every other
// switch. A rebuild resets the set table rather than growing it.
func TestFatTreeFIBFootprint(t *testing.T) {
	t.Parallel()
	for _, k := range []int{8, 16} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			t.Parallel()
			n := FatTree(sim.New(1), k)
			check := func() {
				t.Helper()
				for _, sw := range n.Switches {
					entryBytes, sets := sw.FIBSize()
					if sets > k+1 {
						t.Fatalf("%s interns %d port sets, want at most %d", sw.Name, sets, k+1)
					}
					if want := 2 * len(n.Hosts); entryBytes != want {
						t.Fatalf("%s FIB entries take %d bytes, want %d (2 per host)", sw.Name, entryBytes, want)
					}
				}
				for i := 1; i < len(n.Hosts); i++ {
					a, b := n.Hosts[i-1], n.Hosts[i]
					if n.LeafOf(a) != n.LeafOf(b) {
						continue
					}
					for _, sw := range n.Switches {
						if sw == n.LeafOf(a) {
							continue
						}
						if ra, rb := sw.Route(a.IP), sw.Route(b.IP); len(ra) == 0 || &ra[0] != &rb[0] {
							t.Fatalf("%s routes %s and %s (same leaf) through different sets %v, %v", sw.Name, a.IP, b.IP, ra, rb)
						}
					}
				}
			}
			check()
			n.RebuildRoutes()
			check()
		})
	}
}
