package core

import (
	"testing"

	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// multiEnv builds a cluster where several groups can coexist on the same
// hosts and switches, exercising the Agent demux and per-group MFTs.
type multiEnv struct {
	eng    *sim.Engine
	net    *topo.Network
	rnics  []*roce.RNIC
	agents []*Agent
	accels []*Accel
}

func newMultiEnv(t *testing.T, build func(*sim.Engine) *topo.Network) *multiEnv {
	t.Helper()
	eng := sim.New(1)
	n := build(eng)
	m := &multiEnv{eng: eng, net: n}
	for _, h := range n.Hosts {
		r := roce.NewRNIC(h, roce.DefaultConfig())
		m.rnics = append(m.rnics, r)
		m.agents = append(m.agents, NewAgent(r))
	}
	for _, sw := range n.Switches {
		m.accels = append(m.accels, Attach(sw, DefaultAccelConfig()))
	}
	return m
}

func (m *multiEnv) newGroup(t *testing.T, idx []int) *Group {
	t.Helper()
	var members []*Member
	var agents []*Agent
	for _, i := range idx {
		members = append(members, &Member{Host: m.net.Hosts[i], RNIC: m.rnics[i], QP: m.rnics[i].CreateQP()})
		agents = append(agents, m.agents[i])
	}
	g := NewGroup(m.eng, m.net.AllocMcstID(), members, 0, agents)
	done, err := false, error(nil)
	g.Register(20*sim.Millisecond, func(e error) { done, err = true, e })
	m.eng.RunUntil(m.eng.Now() + 20*sim.Millisecond)
	if !done || err != nil {
		t.Fatalf("group registration: done=%v err=%v", done, err)
	}
	return g
}

func (m *multiEnv) bcast(t *testing.T, g *Group, src, size int) {
	t.Helper()
	remaining := len(g.Members) - 1
	for i, mem := range g.Members {
		if i == src {
			continue
		}
		mem.QP.OnMessage = func(roce.Message) { remaining-- }
	}
	g.Members[src].QP.PostSend(size, nil)
	if m.eng.Run(m.eng.Now()+2*sim.Second, func() bool { return remaining == 0 }) != sim.Done {
		t.Fatalf("bcast stalled with %d receivers pending", remaining)
	}
}

func TestTwoGroupsSameHostsCoexist(t *testing.T) {
	m := newMultiEnv(t, func(eng *sim.Engine) *topo.Network { return topo.Testbed(eng, 4) })
	g1 := m.newGroup(t, []int{0, 1, 2, 3})
	g2 := m.newGroup(t, []int{0, 1, 2, 3})
	if g1.ID == g2.ID {
		t.Fatal("McstID collision")
	}
	if m.accels[0].Groups() != 2 {
		t.Fatalf("switch holds %d MFTs, want 2", m.accels[0].Groups())
	}
	// Traffic in both groups, interleaved, from different sources.
	m.bcast(t, g1, 0, 256<<10)
	m.bcast(t, g2, 2, 256<<10)
	m.bcast(t, g1, 0, 64)
}

func TestDisjointGroupsFatTree(t *testing.T) {
	m := newMultiEnv(t, func(eng *sim.Engine) *topo.Network { return topo.FatTree(eng, 4) })
	g1 := m.newGroup(t, []int{0, 2, 5, 9})
	g2 := m.newGroup(t, []int{1, 6, 10, 15})
	m.bcast(t, g1, 0, 128<<10)
	m.bcast(t, g2, 0, 128<<10)
}

func TestOverlappingGroupsFatTree(t *testing.T) {
	m := newMultiEnv(t, func(eng *sim.Engine) *topo.Network { return topo.FatTree(eng, 4) })
	g1 := m.newGroup(t, []int{0, 1, 8, 12})
	g2 := m.newGroup(t, []int{0, 1, 8, 13}) // shares three hosts with g1
	m.bcast(t, g1, 0, 64<<10)
	m.bcast(t, g2, 3, 64<<10)
	// Re-sourcing g1 inside the group requires the §III-E PSN sync.
	g1.SwitchSource(0, 2)
	m.bcast(t, g1, 2, 64<<10)
}

// TestLargeGroupChunkedMRP exercises registration past the 183-node MRP
// limit: a 300-member group needs two MRP chunks (Fig 5's seq/total).
func TestLargeGroupChunkedMRP(t *testing.T) {
	m := newMultiEnv(t, func(eng *sim.Engine) *topo.Network { return topo.FatTree(eng, 12) })
	if len(m.net.Hosts) < 300 {
		t.Fatalf("topology too small: %d hosts", len(m.net.Hosts))
	}
	idx := make([]int, 300)
	for i := range idx {
		idx[i] = i
	}
	g := m.newGroup(t, idx)
	m.bcast(t, g, 0, 64<<10)
	// Feedback aggregation must have collapsed the 299 ACK streams.
	senderAcks := m.rnics[0].Stats.AcksRecv
	if senderAcks == 0 {
		t.Fatal("sender received no aggregated ACKs")
	}
	var receiverAcks uint64
	for _, r := range m.rnics[1:300] {
		receiverAcks += r.Stats.AcksSent
	}
	if senderAcks*10 > receiverAcks {
		t.Fatalf("sender saw %d ACKs of %d generated; aggregation failed at scale", senderAcks, receiverAcks)
	}
}

// TestGroupLevelLoadBalancing: many groups across the same ECMP choices
// spread across uplinks rather than piling onto one.
func TestGroupLevelLoadBalancing(t *testing.T) {
	m := newMultiEnv(t, func(eng *sim.Engine) *topo.Network { return topo.FatTree(eng, 4) })
	// Groups spanning pods force uplink choices at the members' leaves.
	for i := 0; i < 8; i++ {
		m.newGroup(t, []int{0, 15})
	}
	leaf := m.net.LeafOf(m.net.Hosts[0])
	var accel *Accel
	for i, sw := range m.net.Switches {
		if sw == leaf {
			accel = m.accels[i]
		}
	}
	// The leaf has 2 uplinks; 8 groups should not all share one.
	up := map[int]int{}
	for gid := 1; gid <= 8; gid++ {
		mft := accel.MFT(simnet.MulticastBase + simnet.Addr(gid))
		if mft == nil {
			t.Fatalf("group %d has no MFT at the leaf", gid)
		}
		for _, e := range mft.Paths {
			if !e.NextIsHost {
				up[e.Port]++
			}
		}
	}
	if len(up) < 2 {
		t.Fatalf("all groups routed over one uplink: %v", up)
	}
}

// TestMRPRedeliveryIdempotent: control planes retry; delivering the same
// MRP chunk twice must not duplicate Path Table entries or corrupt state.
func TestMRPRedeliveryIdempotent(t *testing.T) {
	m := newMultiEnv(t, func(eng *sim.Engine) *topo.Network { return topo.Testbed(eng, 4) })
	g := m.newGroup(t, []int{0, 1, 2, 3})
	accel := m.accels[0]
	mft := accel.MFT(g.ID)
	entries := len(mft.Paths)

	// Re-send the registration from the leader.
	var nodes []NodeInfo
	for _, mem := range g.Members {
		nodes = append(nodes, NodeInfo{IP: mem.Host.IP, QPN: mem.QP.QPN})
	}
	leader := g.Members[0]
	leader.Host.Send(newMRPPacket(leader.Host.IP, &MRPPayload{
		McstID: g.ID, Seq: 0, Total: 1, CtrlIP: leader.Host.IP, Nodes: nodes,
	}))
	m.eng.RunUntil(m.eng.Now() + sim.Millisecond)
	if len(mft.Paths) != entries {
		t.Fatalf("re-delivery grew the Path Table: %d -> %d", entries, len(mft.Paths))
	}
	// The group still works.
	m.bcast(t, g, 0, 64<<10)
}

// TestRegistrationBeforeTrafficRequired: data into a group whose MFT never
// formed on the path is dropped, not misrouted.
func TestGroupIsolation(t *testing.T) {
	m := newMultiEnv(t, func(eng *sim.Engine) *topo.Network { return topo.Testbed(eng, 4) })
	g1 := m.newGroup(t, []int{0, 1})
	g2 := m.newGroup(t, []int{2, 3})
	// Traffic in g1 must never reach g2's members.
	leaked := false
	for _, mem := range g2.Members {
		mem.QP.OnMessage = func(roce.Message) { leaked = true }
	}
	m.bcast(t, g1, 0, 256<<10)
	if leaked {
		t.Fatal("group 1 traffic delivered to group 2 members")
	}
}
