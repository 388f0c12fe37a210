package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Member is one host's participation in a multicast group: a single RoCE
// QP connected to the virtual remote <McstID, 0x1>, exactly one connection
// per member regardless of group size.
type Member struct {
	Host *simnet.Host
	RNIC *roce.RNIC
	QP   *roce.QP

	// WVA/WRKey describe the member's registered memory region for
	// multicast WRITE.
	WVA   uint64
	WRKey uint32
}

// Agent is the per-host control-plane agent: it demultiplexes MRP traffic
// for every group the host participates in and answers confirmations.
type Agent struct {
	rnic   *roce.RNIC
	groups map[simnet.Addr]*Group
}

// NewAgent installs an agent as the RNIC's control handler.
func NewAgent(rnic *roce.RNIC) *Agent {
	a := &Agent{rnic: rnic, groups: make(map[simnet.Addr]*Group)}
	rnic.CtrlHandler = a.handle
	return a
}

func (a *Agent) handle(p *simnet.Packet) {
	switch p.Type {
	case simnet.MRP:
		pay := p.Meta.(*MRPPayload)
		// Affirm membership: answer the controller with a confirmation for
		// every record naming this host. Replayed registrations are
		// re-confirmed unconditionally — the retransmit may mean the first
		// confirmation was lost, and duplicates are idempotent upstream.
		for _, n := range pay.Nodes {
			if n.IP == a.rnic.Host.IP {
				cf := simnet.NewPacket()
				cf.Type, cf.Src, cf.Dst = simnet.MRPConfirm, a.rnic.Host.IP, pay.CtrlIP
				cf.Payload = 64
				cf.Meta = &confirmPayload{McstID: pay.McstID, Member: n.IP, Epoch: pay.Epoch}
				a.rnic.Host.Send(cf)
			}
		}
	case simnet.MRPConfirm:
		pay := p.Meta.(*confirmPayload)
		if g := a.groups[pay.McstID]; g != nil {
			g.onConfirm(pay.Member, pay.Epoch)
		}
	case simnet.MRPReject:
		pay := p.Meta.(*confirmPayload)
		if g := a.groups[pay.McstID]; g != nil {
			g.onReject(pay.Reason, pay.Epoch)
		}
	}
}

// Group is one multicast group: its members, the controller state on the
// leader host, and the registration lifecycle.
type Group struct {
	ID      simnet.Addr
	Members []*Member

	// Leader indexes the member hosting the controller. Any member may be
	// the multicast source; the leader is only a control-plane role.
	Leader int

	// OnInvalidate fires when the fabric reports the group's forwarding
	// state gone while the group believed itself registered — e.g. a
	// restarted switch NACKing data for a group its wiped MFT no longer
	// holds. The group transitions back to unregistered; the hook is where
	// a recovery layer trips its safeguard and schedules re-registration.
	OnInvalidate func(reason string)

	// Retries counts MRP retransmission rounds across all registrations.
	Retries uint64

	// Registrations counts completed (re-)registrations.
	Registrations uint64

	eng        *sim.Engine
	epoch      uint16
	confirmed  map[simnet.Addr]bool
	registered bool
	failure    string
	onDone     func(err error)
	regTimer   *sim.Timer
	attempt    int
	policy     RegisterPolicy
	curTimeout sim.Time
}

// RegisterPolicy bounds MRP registration retransmission: each attempt waits
// AttemptTimeout for the remaining confirmations, then resends every chunk
// (replay is idempotent at switches and agents) with the timeout doubling up
// to MaxTimeout, failing after MaxAttempts total attempts.
type RegisterPolicy struct {
	AttemptTimeout sim.Time
	MaxTimeout     sim.Time
	MaxAttempts    int
}

// DefaultRegisterPolicy survives double-digit control-plane loss on the
// topologies modeled: 8 attempts starting at 2ms, capped at 16ms.
func DefaultRegisterPolicy() RegisterPolicy {
	return RegisterPolicy{AttemptTimeout: 2 * sim.Millisecond, MaxTimeout: 16 * sim.Millisecond, MaxAttempts: 8}
}

// NewGroup creates a group over the given members. Each member's QP is
// connected to the virtual remote <McstID, 0x1>; the leader's agent is
// registered for controller callbacks.
func NewGroup(eng *sim.Engine, id simnet.Addr, members []*Member, leader int, agents []*Agent) *Group {
	g := &Group{ID: id, Members: members, Leader: leader, eng: eng, confirmed: make(map[simnet.Addr]bool)}
	for _, m := range members {
		m.QP.Connect(id, roce.VirtualQPN)
	}
	for _, ag := range agents {
		ag.groups[id] = g
	}
	return g
}

// RegistrationError reports a failed MFT registration.
type RegistrationError struct{ Reason string }

func (e *RegistrationError) Error() string { return "cepheus: registration failed: " + e.Reason }

// Register runs the MRP registration as a single attempt with one overall
// timeout — the original one-shot behaviour. done fires when every member
// confirmed, or with an error on rejection or timeout.
func (g *Group) Register(timeout sim.Time, done func(err error)) {
	g.RegisterWithPolicy(RegisterPolicy{AttemptTimeout: timeout, MaxAttempts: 1}, done)
}

// RegisterWithPolicy runs the MRP registration with per-attempt timeout and
// bounded exponential-backoff retransmission. Calling it on an already
// registered (or failed) group starts a fresh registration under the next
// epoch — re-probe after a fault, or first-time registration; switches
// replace older-epoch MFT state wholesale when the new epoch reaches them.
func (g *Group) RegisterWithPolicy(policy RegisterPolicy, done func(err error)) {
	if g.regTimer != nil {
		g.regTimer.Stop()
	}
	g.onDone = done
	g.policy = policy
	g.epoch++
	g.attempt = 0
	g.curTimeout = policy.AttemptTimeout
	g.registered = false
	g.failure = ""
	g.confirmed = make(map[simnet.Addr]bool)
	// The controller's own host is a participant by construction; the paper
	// collects confirmations only from the other hosts.
	g.confirmed[g.Members[g.Leader].Host.IP] = true
	g.sendAttempt()
}

// sendAttempt launches (or relaunches) every MRP chunk and arms the
// per-attempt timer. Resending all chunks rather than only unconfirmed ones
// keeps the controller stateless about which switch dropped what; replay is
// idempotent end to end.
func (g *Group) sendAttempt() {
	leader := g.Members[g.Leader]
	nodes := make([]NodeInfo, len(g.Members))
	for i, m := range g.Members {
		nodes[i] = NodeInfo{IP: m.Host.IP, QPN: m.QP.QPN, WVA: m.WVA, WRKey: m.WRKey}
	}
	chunks := chunkNodes(nodes)
	for i, ch := range chunks {
		pay := &MRPPayload{
			McstID: g.ID, Seq: i, Total: len(chunks), Epoch: g.epoch,
			CtrlIP: leader.Host.IP, Nodes: ch,
		}
		leader.Host.Send(newMRPPacket(leader.Host.IP, pay))
	}
	if g.curTimeout <= 0 {
		return // no timeout: wait forever (legacy Register(0, ...) semantics)
	}
	timeout := g.curTimeout
	g.regTimer = g.eng.AfterTimer(timeout, func() {
		if g.registered || g.failure != "" {
			return
		}
		g.attempt++
		if g.attempt >= g.policy.MaxAttempts {
			g.fail(fmt.Sprintf("timeout after %d attempts with %d/%d confirmations",
				g.attempt, len(g.confirmed), len(g.Members)))
			return
		}
		g.Retries++
		g.curTimeout *= 2
		if g.policy.MaxTimeout > 0 && g.curTimeout > g.policy.MaxTimeout {
			g.curTimeout = g.policy.MaxTimeout
		}
		g.sendAttempt()
	})
}

// Epoch returns the group's current registration generation.
func (g *Group) Epoch() uint16 { return g.epoch }

func (g *Group) onConfirm(member simnet.Addr, epoch uint16) {
	if g.registered || g.failure != "" || epoch != g.epoch {
		return // duplicate, late, or stale-epoch confirmation: idempotent
	}
	g.confirmed[member] = true
	if len(g.confirmed) == len(g.Members) {
		g.registered = true
		g.Registrations++
		if g.regTimer != nil {
			g.regTimer.Stop()
		}
		if g.onDone != nil {
			g.onDone(nil)
		}
	}
}

func (g *Group) onReject(reason string, epoch uint16) {
	if g.registered {
		// The fabric disowned a group we believed registered — a restarted
		// switch with a wiped MFT, or stale forwarding state NACKed. Fall to
		// unregistered and let the recovery layer re-probe.
		if epoch == epochUnknown || epoch == g.epoch {
			g.invalidate(reason)
		}
		return
	}
	if g.failure != "" || (epoch != g.epoch && epoch != epochUnknown) {
		return // stale rejection from a superseded registration attempt
	}
	g.fail(reason)
}

func (g *Group) invalidate(reason string) {
	g.registered = false
	if g.OnInvalidate != nil {
		g.OnInvalidate(reason)
	}
}

func (g *Group) fail(reason string) {
	g.failure = reason
	if g.regTimer != nil {
		g.regTimer.Stop()
	}
	if g.onDone != nil {
		g.onDone(&RegistrationError{Reason: reason})
	}
}

// Registered reports whether registration completed successfully.
func (g *Group) Registered() bool { return g.registered }

// SyncAllPSN aligns every member's send and receive PSN at the group-wide
// maximum. The reduction extension uses it when the reduction root moves:
// contributors must share one send-PSN line for their packets to combine
// per PSN, which the pairwise §III-E sync cannot restore once members'
// roles have diverged. All QPs must be idle.
func (g *Group) SyncAllPSN() {
	var max uint64
	for _, m := range g.Members {
		if v := m.QP.SqPSN(); v > max {
			max = v
		}
		if v := m.QP.RqPSN(); v > max {
			max = v
		}
	}
	for _, m := range g.Members {
		m.QP.SetSqPSN(max)
		m.QP.SetRqPSN(max)
	}
}

// SwitchSource performs the §III-E PSN Synchronization between the old and
// new source members. The fabric needs no reconfiguration: switches detect
// the new incoming port from the data itself.
func (g *Group) SwitchSource(oldIdx, newIdx int) {
	old := g.Members[oldIdx].QP
	next := g.Members[newIdx].QP
	// Old source: rqPSN := sqPSN, so it can verify the new source's stream.
	old.SetRqPSN(old.SqPSN())
	// New source: sqPSN := rqPSN, so receivers' verification still matches.
	next.SetSqPSN(next.RqPSN())
}

// DeliveryLatency merges every member QP's delivery-latency histogram into a
// per-group digest: how long this group's packets took from requester
// emission to in-order acceptance at each receiver.
func (g *Group) DeliveryLatency() obs.Summary {
	var h obs.Histogram
	for _, m := range g.Members {
		h.Merge(&m.QP.LatHist)
	}
	return h.Summary()
}
