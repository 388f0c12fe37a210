// Package topo builds the network topologies the paper evaluates on: the
// 4-server single-switch testbed (§IV) and the 1024-server 3-layer fat-tree
// with 1:1 oversubscription used in the ns-3 simulations (§V-C). It also
// computes shortest-path ECMP unicast forwarding tables, which Cepheus MRP
// registration consults to pick multicast routing ports.
package topo

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// DefaultLinkRate is 100 Gbps, matching both the testbed RNICs and the
// simulated fat-tree.
const DefaultLinkRate = 100e9

// DefaultPropDelay is the per-hop propagation plus switch pipeline delay.
const DefaultPropDelay = 600 * sim.Nanosecond

// Network is a built topology: hosts, switches, and the wiring between them.
type Network struct {
	// Eng is the engine that drives the whole fabric.
	Eng      *sim.Engine
	Hosts    []*simnet.Host
	Switches []*simnet.Switch

	// LinkRate and PropDelay record the parameters the network was built
	// with, so transports can size windows from the BDP.
	LinkRate  float64
	PropDelay sim.Time

	mcstIDs uint32 // group IDs handed out by AllocMcstID
}

// HostIP returns the address of host i. Host addresses are assigned
// sequentially starting at 10.0.0.1 and never collide with McstIDs.
func HostIP(i int) simnet.Addr { return simnet.Addr(0x0A000001 + uint32(i)) }

// AllocMcstID returns a fresh 32-bit class-D multicast group ID. The
// switches key their MFTs by it, so it is unique within this network; each
// network counts from MulticastBase+1.
func (n *Network) AllocMcstID() simnet.Addr {
	n.mcstIDs++
	return simnet.MulticastBase + simnet.Addr(n.mcstIDs)
}

// HostByIP finds a host by address, or nil.
func (n *Network) HostByIP(ip simnet.Addr) *simnet.Host {
	i := int(uint32(ip) - 0x0A000001)
	if i < 0 || i >= len(n.Hosts) {
		return nil
	}
	return n.Hosts[i]
}

// LeafOf returns the switch a host is directly attached to.
func (n *Network) LeafOf(h *simnet.Host) *simnet.Switch {
	sw, ok := h.NIC.Peer.Dev.(*simnet.Switch)
	if !ok {
		panic(fmt.Sprintf("topo: host %s not attached to a switch", h.Name))
	}
	return sw
}

// Testbed builds the §IV configuration: nHosts servers on one Ethernet
// switch. The paper uses four servers with ConnectX-5 100Gbps RNICs.
func Testbed(eng *sim.Engine, nHosts int) *Network {
	return TestbedWith(eng, nHosts, DefaultLinkRate, DefaultPropDelay)
}

// TestbedWith is Testbed with explicit link parameters.
func TestbedWith(eng *sim.Engine, nHosts int, rate float64, prop sim.Time) *Network {
	n := &Network{Eng: eng, LinkRate: rate, PropDelay: prop}
	sw := simnet.NewSwitch(eng, "tor0")
	sw.PFC = simnet.DefaultPFC()
	n.Switches = []*simnet.Switch{sw}
	for i := 0; i < nHosts; i++ {
		h := simnet.NewHost(eng, fmt.Sprintf("h%d", i), HostIP(i), rate, prop)
		p := sw.AddPort(rate, prop)
		simnet.Connect(h.NIC, p)
		sw.AddRoute(h.IP, p.ID)
		n.Hosts = append(n.Hosts, h)
	}
	return n
}

// FatTree builds a k-ary 3-layer fat-tree with 1:1 oversubscription:
// k pods, each with k/2 edge and k/2 aggregation switches, (k/2)^2 core
// switches, and k^3/4 hosts. k=16 yields the paper's 1024-server topology.
// All links share one rate, so the fabric is rearrangeably non-blocking.
func FatTree(eng *sim.Engine, k int) *Network {
	return FatTreeWith(eng, k, DefaultLinkRate, DefaultPropDelay)
}

// FatTreeWith is FatTree with explicit link parameters.
func FatTreeWith(eng *sim.Engine, k int, rate float64, prop sim.Time) *Network {
	return FatTreeWithTrunk(eng, k, rate, prop, prop)
}

// FatTreeWithTrunk is FatTreeWith with a separate propagation delay for the
// aggregation↔core trunks, which are physically longer than in-pod cabling
// in a real datacenter.
func FatTreeWithTrunk(eng *sim.Engine, k int, rate float64, prop, coreProp sim.Time) *Network {
	if k < 2 || k%2 != 0 {
		panic("topo: fat-tree arity must be even and >= 2")
	}
	n := &Network{Eng: eng, LinkRate: rate, PropDelay: prop}
	half := k / 2

	newSwitch := func(name string) *simnet.Switch {
		sw := simnet.NewSwitch(eng, name)
		sw.PFC = simnet.DefaultPFC()
		n.Switches = append(n.Switches, sw)
		return sw
	}

	edges := make([][]*simnet.Switch, k) // [pod][i]
	aggs := make([][]*simnet.Switch, k)  // [pod][i]
	cores := make([]*simnet.Switch, 0, half*half)

	for p := 0; p < k; p++ {
		edges[p] = make([]*simnet.Switch, half)
		aggs[p] = make([]*simnet.Switch, half)
		for i := 0; i < half; i++ {
			edges[p][i] = newSwitch(fmt.Sprintf("edge-p%d-%d", p, i))
			aggs[p][i] = newSwitch(fmt.Sprintf("agg-p%d-%d", p, i))
		}
	}
	for c := 0; c < half*half; c++ {
		cores = append(cores, newSwitch(fmt.Sprintf("core-%d", c)))
	}

	connect := func(a, b *simnet.Switch, d sim.Time) {
		pa := a.AddPort(rate, d)
		pb := b.AddPort(rate, d)
		simnet.Connect(pa, pb)
	}

	// Hosts to edge switches.
	hostID := 0
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				h := simnet.NewHost(eng, fmt.Sprintf("h%d", hostID), HostIP(hostID), rate, prop)
				pt := edges[p][i].AddPort(rate, prop)
				simnet.Connect(h.NIC, pt)
				n.Hosts = append(n.Hosts, h)
				hostID++
			}
		}
	}
	// Edge to aggregation (full mesh within pod).
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				connect(edges[p][i], aggs[p][j], prop)
			}
		}
	}
	// Aggregation to core: agg j in each pod connects to cores
	// j*half .. j*half+half-1.
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for c := 0; c < half; c++ {
				connect(aggs[p][j], cores[j*half+c], coreProp)
			}
		}
	}

	buildRoutes(n)
	return n
}

// LeafSpine builds a two-tier Clos: leaves hold hostsPerLeaf servers each
// and connect to every spine. The oversubscription ratio is
// hostsPerLeaf/spines (1:1 when equal). Useful for experiments that need a
// flatter fabric or deliberate oversubscription.
func LeafSpine(eng *sim.Engine, leaves, spines, hostsPerLeaf int) *Network {
	return LeafSpineWith(eng, leaves, spines, hostsPerLeaf, DefaultLinkRate, DefaultPropDelay)
}

// LeafSpineWith is LeafSpine with explicit link parameters.
func LeafSpineWith(eng *sim.Engine, leaves, spines, hostsPerLeaf int, rate float64, prop sim.Time) *Network {
	if leaves < 1 || spines < 1 || hostsPerLeaf < 1 {
		panic("topo: leaf-spine dimensions must be positive")
	}
	n := &Network{Eng: eng, LinkRate: rate, PropDelay: prop}
	leafSw := make([]*simnet.Switch, leaves)
	for l := range leafSw {
		leafSw[l] = simnet.NewSwitch(eng, fmt.Sprintf("leaf-%d", l))
		leafSw[l].PFC = simnet.DefaultPFC()
		n.Switches = append(n.Switches, leafSw[l])
	}
	for s := 0; s < spines; s++ {
		sp := simnet.NewSwitch(eng, fmt.Sprintf("spine-%d", s))
		sp.PFC = simnet.DefaultPFC()
		n.Switches = append(n.Switches, sp)
		for _, lf := range leafSw {
			pa := lf.AddPort(rate, prop)
			pb := sp.AddPort(rate, prop)
			simnet.Connect(pa, pb)
		}
	}
	hostID := 0
	for _, lf := range leafSw {
		for j := 0; j < hostsPerLeaf; j++ {
			h := simnet.NewHost(eng, fmt.Sprintf("h%d", hostID), HostIP(hostID), rate, prop)
			pt := lf.AddPort(rate, prop)
			simnet.Connect(h.NIC, pt)
			n.Hosts = append(n.Hosts, h)
			hostID++
		}
	}
	buildRoutes(n)
	return n
}

// linkUp reports whether pt is a usable edge: both ends of the link (and
// the devices behind them) alive. During the initial topology build nothing
// is down and every edge qualifies.
func linkUp(pt *simnet.Port) bool {
	if pt.Down() || pt.Peer == nil || pt.Peer.Down() {
		return false
	}
	if psw, ok := pt.Peer.Dev.(*simnet.Switch); ok && psw.Crashed() {
		return false
	}
	return true
}

// buildRoutes discards every switch's FIB and computes shortest-path ECMP
// entries for every host destination via BFS across the switch graph. Both
// the distance field and the resulting (switch, port) route set depend only
// on the host's leaf (and whether its access link is up), so hosts sharing a
// leaf compute them once, intern each switch's port set once, and install
// the interned handle with one 2-byte table write per switch — on a
// fat-tree that divides the route-build cost by the hosts-per-leaf count
// and makes the replay allocation-free, which is what keeps the 1024-host
// topology's setup cheap. Only the leaf's direct route to the host itself
// differs per host.
func buildRoutes(n *Network) {
	for i, sw := range n.Switches {
		sw.Index = i // the BFS arrays here and in PathExists index by it
		sw.ResetFIB(HostIP(0), len(n.Hosts))
	}
	type distKey struct {
		leaf *simnet.Switch
		up   bool
	}
	type swRoutes struct {
		sw  int            // switch index
		set simnet.PortSet // ECMP egress ports toward the leaf, interned on sw
	}
	type leafRoutes struct {
		reachable bool // the leaf itself is up and routable
		routes    []swRoutes
	}
	cache := make(map[distKey]*leafRoutes)
	for _, h := range n.Hosts {
		leaf, ok := h.NIC.Peer.Dev.(*simnet.Switch)
		if !ok {
			continue
		}
		key := distKey{leaf, !leaf.Crashed() && linkUp(h.NIC)}
		lr, cached := cache[key]
		if !cached {
			dist := make([]int, len(n.Switches))
			for i := range dist {
				dist[i] = -1
			}
			if key.up {
				dist[leaf.Index] = 0
			}
			queue := []*simnet.Switch{leaf}
			for len(queue) > 0 {
				sw := queue[0]
				queue = queue[1:]
				d := dist[sw.Index]
				if d == -1 {
					continue
				}
				for _, pt := range sw.Ports {
					peer, ok := pt.Peer.Dev.(*simnet.Switch)
					if !ok || !linkUp(pt) {
						continue
					}
					if dist[peer.Index] == -1 {
						dist[peer.Index] = d + 1
						queue = append(queue, peer)
					}
				}
			}
			// Every non-leaf switch routes toward the leaf via ports whose
			// switch peer is one hop closer. Intern copies the set, so one
			// scratch slice serves every switch.
			lr = &leafRoutes{reachable: dist[leaf.Index] == 0}
			var ports []int
			for i, sw := range n.Switches {
				if sw == leaf {
					continue
				}
				d := dist[i]
				if d == -1 {
					continue
				}
				ports = ports[:0]
				for _, pt := range sw.Ports {
					peer, ok := pt.Peer.Dev.(*simnet.Switch)
					if !ok || !linkUp(pt) {
						continue
					}
					if dist[peer.Index] == d-1 {
						ports = append(ports, pt.ID)
					}
				}
				if len(ports) > 0 {
					lr.routes = append(lr.routes, swRoutes{sw: i, set: sw.Intern(ports)})
				}
			}
			cache[key] = lr
		}
		if !lr.reachable {
			continue // host unreachable: its access link or leaf is dead
		}
		// The leaf routes directly to the host port; everything else replays
		// the memoized route set for this leaf.
		for _, pt := range leaf.Ports {
			if pt.Peer.Dev == simnet.Device(h) {
				leaf.AddRoute(h.IP, pt.ID)
			}
		}
		for _, rt := range lr.routes {
			n.Switches[rt.sw].SetPortSet(h.IP, rt.set)
		}
	}
}

// RebuildRoutes recomputes every switch's ECMP FIB from the current fault
// state, excluding down links and crashed switches. It is the route-repair
// step of the recovery pipeline: after it runs, unicast fallback traffic and
// freshly registered MDTs avoid dead elements. Hosts with no surviving path
// get no FIB entries; switches drop packets to them as no-route drops, so
// callers should exclude unreachable members before sending.
func (n *Network) RebuildRoutes() { buildRoutes(n) }

// PathExists reports whether a usable path currently connects hosts a and b
// under the fault state (down links, crashed switches). The recovery layer
// consults it before sending unicast traffic or re-registering a group, so
// a dead destination never drives forwarding into a routeless FIB.
func (n *Network) PathExists(a, b *simnet.Host) bool {
	if a == b {
		return true
	}
	if !linkUp(a.NIC) || !linkUp(b.NIC) {
		return false
	}
	aLeaf, ok := a.NIC.Peer.Dev.(*simnet.Switch)
	if !ok || aLeaf.Crashed() {
		return false
	}
	bLeaf, ok := b.NIC.Peer.Dev.(*simnet.Switch)
	if !ok || bLeaf.Crashed() {
		return false
	}
	if aLeaf == bLeaf {
		return true
	}
	seen := make([]bool, len(n.Switches))
	seen[aLeaf.Index] = true
	queue := []*simnet.Switch{aLeaf}
	for len(queue) > 0 {
		sw := queue[0]
		queue = queue[1:]
		for _, pt := range sw.Ports {
			peer, ok := pt.Peer.Dev.(*simnet.Switch)
			if !ok || !linkUp(pt) || seen[peer.Index] {
				continue
			}
			if peer == bLeaf {
				return true
			}
			seen[peer.Index] = true
			queue = append(queue, peer)
		}
	}
	return false
}
