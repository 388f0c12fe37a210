package core

import (
	"testing"

	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// env is a Cepheus-enabled cluster for tests.
type env struct {
	eng    *sim.Engine
	net    *topo.Network
	rnics  []*roce.RNIC
	agents []*Agent
	accels []*Accel
	group  *Group
}

// newEnv builds a topology with accelerators on every switch and one group
// over the given member host indices. leader is an index into memberIdx.
func newEnv(t *testing.T, build func(*sim.Engine) *topo.Network, memberIdx []int, leader int, cfg roce.Config) *env {
	t.Helper()
	eng := sim.New(1)
	n := build(eng)
	e := &env{eng: eng, net: n}
	for _, h := range n.Hosts {
		r := roce.NewRNIC(h, cfg)
		e.rnics = append(e.rnics, r)
		e.agents = append(e.agents, NewAgent(r))
	}
	for _, sw := range n.Switches {
		e.accels = append(e.accels, Attach(sw, DefaultAccelConfig()))
	}
	var members []*Member
	var agents []*Agent
	for _, i := range memberIdx {
		members = append(members, &Member{Host: n.Hosts[i], RNIC: e.rnics[i], QP: e.rnics[i].CreateQP()})
		agents = append(agents, e.agents[i])
	}
	e.group = NewGroup(eng, n.AllocMcstID(), members, leader, agents)
	return e
}

func testbed4(eng *sim.Engine) *topo.Network { return topo.Testbed(eng, 4) }

func register(t *testing.T, e *env) {
	t.Helper()
	var err error
	done := false
	e.group.Register(10*sim.Millisecond, func(regErr error) { err = regErr; done = true })
	e.eng.RunUntil(e.eng.Now() + 10*sim.Millisecond)
	if !done {
		t.Fatal("registration did not finish")
	}
	if err != nil {
		t.Fatalf("registration failed: %v", err)
	}
}

func TestRegistrationTestbed(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	register(t, e)
	mft := e.accels[0].MFT(e.group.ID)
	if mft == nil {
		t.Fatal("ToR has no MFT after registration")
	}
	// All four host ports are in the MDT, each as a direct host entry.
	hosts := 0
	for _, pe := range mft.Paths {
		if pe.NextIsHost {
			hosts++
		}
	}
	if hosts != 4 {
		t.Fatalf("MFT has %d host entries, want 4", hosts)
	}
}

func TestRegistrationFatTree(t *testing.T) {
	e := newEnv(t, func(eng *sim.Engine) *topo.Network { return topo.FatTree(eng, 4) },
		[]int{0, 3, 7, 12}, 0, roce.DefaultConfig())
	register(t, e)
	// Member leaves must hold bridging entries for their local members.
	withMFT := 0
	for _, a := range e.accels {
		if a.MFT(e.group.ID) != nil {
			withMFT++
		}
	}
	if withMFT < 3 {
		t.Fatalf("only %d switches built an MFT; MDT did not span the tree", withMFT)
	}
}

// runMulticast sends size bytes from member src and waits for delivery on
// all other members. Returns completion time of the sender's WQE.
func runMulticast(t *testing.T, e *env, src, size int) sim.Time {
	t.Helper()
	got := make(map[int]int)
	for i, m := range e.group.Members {
		if i == src {
			continue
		}
		i := i
		m.QP.OnMessage = func(msg roce.Message) { got[i] += msg.Size }
	}
	var done sim.Time = -1
	start := e.eng.Now()
	e.group.Members[src].QP.PostSend(size, func() { done = e.eng.Now() })
	e.eng.RunUntil(start + 4*sim.Second)
	if done < 0 {
		t.Fatalf("sender completion never fired (acks outstanding=%d)", e.group.Members[src].QP.Outstanding())
	}
	for i := range e.group.Members {
		if i == src {
			continue
		}
		if got[i] != size {
			t.Fatalf("member %d received %d bytes, want %d", i, got[i], size)
		}
	}
	return done - start
}

func TestMulticastDeliversToAll(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	register(t, e)
	runMulticast(t, e, 0, 100)
}

func TestMulticastLargeMessage(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	register(t, e)
	jct := runMulticast(t, e, 0, 8<<20)
	// The sender transmits once; JCT should be near one link-serialization
	// of 8MB (~0.67ms), far below the 3-unicast ~2ms.
	if jct > 2*sim.Millisecond {
		t.Fatalf("multicast 8MB JCT %v; replication not happening in-network", jct)
	}
}

func TestSenderTransmitsOnce(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	register(t, e)
	runMulticast(t, e, 0, 1<<20)
	sent := e.rnics[0].Stats.DataSent
	want := uint64((1 << 20) / roce.DefaultConfig().MTU)
	if sent != want {
		t.Fatalf("sender transmitted %d packets, want exactly %d (one copy)", sent, want)
	}
	if e.accels[0].Stats.DataReplicated == 0 {
		t.Fatal("switch performed no replication")
	}
}

func TestMulticastFatTree(t *testing.T) {
	e := newEnv(t, func(eng *sim.Engine) *topo.Network { return topo.FatTree(eng, 4) },
		[]int{0, 3, 7, 12, 15}, 0, roce.DefaultConfig())
	register(t, e)
	runMulticast(t, e, 0, 1<<20)
}

func TestAckAggregationReducesAcks(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	register(t, e)
	runMulticast(t, e, 0, 4<<20)
	acksIn := e.accels[0].Stats.AcksIn
	acksOut := e.rnics[0].Stats.AcksRecv
	if acksOut == 0 {
		t.Fatal("sender received no ACKs")
	}
	// Three receivers ACK independently; the trigger condition must keep
	// the sender's ACK stream well below the aggregate inflow.
	if acksOut*2 > acksIn {
		t.Fatalf("sender got %d ACKs of %d inflowing; aggregation ineffective", acksOut, acksIn)
	}
}

func TestMulticastWriteBridgesMR(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	for i, m := range e.group.Members {
		m.WVA = uint64(0x1000 * (i + 1))
		m.WRKey = uint32(100 + i)
	}
	register(t, e)
	type rcv struct {
		va   uint64
		rkey uint32
	}
	got := map[int]rcv{}
	for i, m := range e.group.Members {
		if i == 0 {
			continue
		}
		i := i
		m.QP.OnMessage = func(msg roce.Message) { got[i] = rcv{msg.WriteVA, msg.WriteRKey} }
	}
	e.group.Members[0].QP.PostWrite(8192, 0xAAAA, 7, nil)
	e.eng.RunUntil(e.eng.Now() + 100*sim.Millisecond)
	for i := 1; i < 4; i++ {
		want := rcv{uint64(0x1000 * (i + 1)), uint32(100 + i)}
		if got[i] != want {
			t.Fatalf("member %d saw MR %+v, want its registered %+v", i, got[i], want)
		}
	}
}

func TestMulticastUnderLoss(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	register(t, e)
	e.net.Switches[0].LossRate = 1e-3
	runMulticast(t, e, 0, 4<<20)
	if e.net.Switches[0].DataDrops == 0 {
		t.Skip("loss injector never fired at this seed")
	}
	if e.rnics[0].Stats.Retransmits == 0 && e.rnics[0].Stats.Timeouts == 0 {
		t.Fatal("drops occurred but sender never retransmitted")
	}
}

func TestRetransmitFilterPreventsDuplicates(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	register(t, e)
	e.net.Switches[0].LossRate = 5e-3
	runMulticast(t, e, 0, 8<<20)
	if e.net.Switches[0].DataDrops == 0 {
		t.Skip("no drops at this seed")
	}
	filtered := e.accels[0].Stats.RetransFiltered
	if filtered == 0 {
		t.Fatal("retransmissions happened but the filter never engaged")
	}
	// Receivers should see almost no duplicates: only those retransmissions
	// racing their own ACKs.
	var dup uint64
	for _, r := range e.rnics[1:] {
		dup += r.Stats.DupData
	}
	var retrans uint64 = e.rnics[0].Stats.Retransmits
	if retrans > 0 && dup > retrans*3 {
		t.Fatalf("receivers saw %d duplicates for %d retransmissions; filter leaky", dup, retrans)
	}
}

func TestSourceSwitching(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	register(t, e)
	runMulticast(t, e, 0, 1<<20)
	// Switch source 0 -> 2 with PSN synchronization; no re-registration.
	e.group.SwitchSource(0, 2)
	runMulticast(t, e, 2, 1<<20)
	if e.accels[0].Groups() != 1 {
		t.Fatalf("switch holds %d MFTs after source switch, want 1", e.accels[0].Groups())
	}
	if e.accels[0].MFT(e.group.ID).SourceSwitches == 0 {
		t.Fatal("switch never detected the source change")
	}
	// And back again.
	e.group.SwitchSource(2, 1)
	runMulticast(t, e, 1, 64<<10)
}

func TestSourceSwitchingFatTree(t *testing.T) {
	e := newEnv(t, func(eng *sim.Engine) *topo.Network { return topo.FatTree(eng, 4) },
		[]int{0, 5, 9, 14}, 0, roce.DefaultConfig())
	register(t, e)
	runMulticast(t, e, 0, 256<<10)
	e.group.SwitchSource(0, 3)
	runMulticast(t, e, 3, 256<<10)
}

func TestRegistrationChunking(t *testing.T) {
	nodes := make([]NodeInfo, 450)
	chunks := chunkNodes(nodes)
	if len(chunks) != 3 {
		t.Fatalf("450 nodes -> %d chunks, want 3 (183+183+84)", len(chunks))
	}
	if len(chunks[0]) != MRPMaxNodes || len(chunks[2]) != 450-2*MRPMaxNodes {
		t.Fatalf("chunk sizes %d/%d/%d", len(chunks[0]), len(chunks[1]), len(chunks[2]))
	}
	if chunkNodes(nil) != nil {
		t.Fatal("empty chunking should be nil")
	}
}

func TestRegistrationCapacityReject(t *testing.T) {
	eng := sim.New(1)
	n := topo.Testbed(eng, 4)
	cfg := roce.DefaultConfig()
	var rnics []*roce.RNIC
	var agents []*Agent
	for _, h := range n.Hosts {
		r := roce.NewRNIC(h, cfg)
		rnics = append(rnics, r)
		agents = append(agents, NewAgent(r))
	}
	acfg := DefaultAccelConfig()
	acfg.MaxGroups = 1
	Attach(n.Switches[0], acfg)
	mk := func() (*Group, *error) {
		var members []*Member
		for i := range n.Hosts {
			members = append(members, &Member{Host: n.Hosts[i], RNIC: rnics[i], QP: rnics[i].CreateQP()})
		}
		g := NewGroup(eng, n.AllocMcstID(), members, 0, agents)
		var err error
		errp := &err
		g.Register(5*sim.Millisecond, func(e error) { *errp = e })
		return g, errp
	}
	g1, err1 := mk()
	g2, err2 := mk()
	eng.RunUntil(20 * sim.Millisecond)
	if *err1 != nil || !g1.Registered() {
		t.Fatalf("first group should register: %v", *err1)
	}
	if *err2 == nil || g2.Registered() {
		t.Fatal("second group should be rejected at MaxGroups=1")
	}
	if _, ok := (*err2).(*RegistrationError); !ok {
		t.Fatalf("error type %T, want *RegistrationError", *err2)
	}
}

func TestRegistrationTimeout(t *testing.T) {
	eng := sim.New(1)
	n := topo.Testbed(eng, 4)
	cfg := roce.DefaultConfig()
	var rnics []*roce.RNIC
	var agents []*Agent
	for _, h := range n.Hosts {
		r := roce.NewRNIC(h, cfg)
		rnics = append(rnics, r)
		agents = append(agents, NewAgent(r))
	}
	// No accelerator attached: MRP packets hit a switch with no hook and are
	// unicast-forwarded nowhere useful, so confirmations never arrive.
	n.Switches[0].Hook = dropMRP{}
	var members []*Member
	for i := range n.Hosts {
		members = append(members, &Member{Host: n.Hosts[i], RNIC: rnics[i], QP: rnics[i].CreateQP()})
	}
	g := NewGroup(eng, n.AllocMcstID(), members, 0, agents)
	var err error
	g.Register(1*sim.Millisecond, func(e error) { err = e })
	eng.RunUntil(5 * sim.Millisecond)
	if err == nil {
		t.Fatal("registration should time out when MRP is black-holed")
	}
	if g.Registered() {
		t.Fatal("group claims registered after timeout")
	}
}

type dropMRP struct{}

func (dropMRP) Handle(sw *simnet.Switch, p *simnet.Packet, in *simnet.Port) bool {
	return p.Type == simnet.MRP
}

func TestMFTMemoryBound(t *testing.T) {
	// The paper: 1K groups cost at most 0.69MB on a 64-port switch.
	perGroup := MaxMemoryBytes(64)
	total := 1000 * perGroup
	if total > 725000 {
		t.Fatalf("1K groups cost %d bytes, exceeding the paper's ~0.69MB bound", total)
	}
	// And the bound must not depend on group size: an MFT for a 4-port
	// testbed switch in a 1000-member group is still 4 entries max.
	m := NewMFT(simnet.MulticastBase+1, 4)
	for p := 0; p < 4; p++ {
		m.EnsureEntry(p)
	}
	if m.MemoryBytes() != MaxMemoryBytes(4) {
		t.Fatalf("full 4-port MFT = %d bytes, want %d", m.MemoryBytes(), MaxMemoryBytes(4))
	}
}

func TestMinAckSemantics(t *testing.T) {
	m := NewMFT(simnet.MulticastBase+1, 8)
	m.AckOutPort = 0
	m.EnsureEntry(0)
	m.EnsureEntry(1)
	m.EnsureEntry(2)
	if _, _, ok := m.MinAck(); ok {
		t.Fatal("MinAck ok before any feedback")
	}
	m.Entry(1).AckPSN = 5
	if _, _, ok := m.MinAck(); ok {
		t.Fatal("MinAck ok with one silent path")
	}
	m.Entry(2).AckPSN = 3
	min, argmin, ok := m.MinAck()
	if !ok || min != 3 || argmin != 2 {
		t.Fatalf("MinAck = %d/%d/%v, want 3/2/true", min, argmin, ok)
	}
	// The AckOutPort path must be excluded even though it never acked.
	if m.Entry(0).AckPSN != ackNone {
		t.Fatal("test setup broken")
	}
}

func TestNackZeroEPSN(t *testing.T) {
	// A NACK with ePSN=0 (very first packet lost) acknowledges nothing but
	// proves the path is alive: MinAck must become valid at -1.
	m := NewMFT(simnet.MulticastBase+1, 4)
	m.AckOutPort = 0
	m.EnsureEntry(0)
	e := m.EnsureEntry(1)
	e.AckPSN = -1 // what handleNack sets for ePSN=0
	min, _, ok := m.MinAck()
	if !ok || min != -1 {
		t.Fatalf("MinAck = %d/%v, want -1/true", min, ok)
	}
}
