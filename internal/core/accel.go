package core

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// AccelConfig tunes one switch's accelerator.
type AccelConfig struct {
	// MaxGroups bounds the number of MFTs; registration beyond it is
	// rejected, which exercises the safeguard fallback (§V-D).
	MaxGroups int

	// CNPAgingPeriod is the decay period of the per-port congestion
	// counters used by CNP filtering.
	CNPAgingPeriod sim.Time

	// NackHoldoff suppresses duplicate NACK emissions for the same ePSN
	// within this window, while the retransmission is already in flight.
	NackHoldoff sim.Time

	// UnknownGroupNackHoldoff rate-limits the per-group rejection a switch
	// sends when multicast data arrives for a group it has no MFT for.
	UnknownGroupNackHoldoff sim.Time

	// DisableRetransFilter turns off §III-D's duplicate-retransmission
	// filtering (ablation).
	DisableRetransFilter bool

	// DisableCNPFilter forwards every CNP instead of only those from the
	// most congested path (ablation).
	DisableCNPFilter bool

	// NaiveAckForwarding disables the trigger condition and emits an
	// aggregated ACK on every feedback arrival that advances the minimum
	// (ablation for the ACK-exploding mitigation).
	NaiveAckForwarding bool
}

// DefaultAccelConfig returns the prototype's configuration.
func DefaultAccelConfig() AccelConfig {
	return AccelConfig{
		MaxGroups:               1024,
		CNPAgingPeriod:          200 * sim.Microsecond,
		NackHoldoff:             20 * sim.Microsecond,
		UnknownGroupNackHoldoff: 100 * sim.Microsecond,
	}
}

// AccelStats counts accelerator activity, per switch.
type AccelStats struct {
	DataIn          uint64
	DataReplicated  uint64
	DataBridged     uint64
	RetransFiltered uint64
	AcksIn          uint64
	AcksEmitted     uint64
	NacksIn         uint64
	NacksEmitted    uint64
	CNPsIn          uint64
	CNPsForwarded   uint64
	CNPsFiltered    uint64
	MRPProcessed    uint64
	MRPRejected     uint64
	Reduce          ReduceStats

	// Fault/recovery counters.
	MFTWipes          uint64 // groups lost to a switch crash (volatile MFT)
	EpochRebuilds     uint64 // MFTs replaced by a newer-epoch registration
	StaleMRPDropped   uint64 // older-epoch MRP replays discarded
	UnknownGroupDrops uint64 // multicast data dropped for an unknown group
	UnknownGroupNacks uint64 // rejections emitted for unknown-group data
}

// Accel is the Cepheus accelerator attached to one switch. The paper
// implements it as an FPGA board on four spare ports with ACL redirection;
// here it sits inline in the switch pipeline (a substitution recorded in
// DESIGN.md §1). It implements simnet.SwitchHook.
type Accel struct {
	Cfg   AccelConfig
	Stats AccelStats

	sw      *simnet.Switch
	mfts    map[simnet.Addr]*MFT
	reduces map[simnet.Addr]*reduceState

	// One-entry MFT lookup cache: a switch in a multicast hot path sees the
	// same group on nearly every packet, so this turns the per-packet map
	// access into a compare. Invalidated on any mfts mutation.
	cacheID  simnet.Addr
	cacheMFT *MFT

	// mgLoad counts how many groups route through each port, for the
	// group-level load balancing MRP performs when picking among ECMP
	// candidates (§III-C).
	mgLoad []int

	// lastUnknownNack rate-limits the rejection a switch sends when data
	// arrives for a group it has no MFT for (post-crash), so a full-rate
	// sender does not become a control-plane NACK storm.
	lastUnknownNack map[simnet.Addr]sim.Time
}

// Attach creates an accelerator and installs it on the switch. The switch's
// restart hook is claimed to model the MFT's volatility: a crashed switch
// comes back with no multicast forwarding state and must be re-registered.
func Attach(sw *simnet.Switch, cfg AccelConfig) *Accel {
	a := &Accel{Cfg: cfg, sw: sw, mfts: make(map[simnet.Addr]*MFT)}
	sw.Hook = a
	sw.OnRestart = a.onSwitchRestart
	return a
}

// onSwitchRestart wipes all volatile accelerator state, as a power cycle of
// the FPGA board would: every MFT, reduction state, and the load counters.
func (a *Accel) onSwitchRestart() {
	a.Stats.MFTWipes += uint64(len(a.mfts))
	if tr := a.sw.Tracer(); tr.On() && len(a.mfts) > 0 {
		// One event per wiped group, in sorted group order — map iteration
		// order must never leak into the trace.
		groups := make([]simnet.Addr, 0, len(a.mfts))
		for id := range a.mfts {
			groups = append(groups, id)
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
		for _, id := range groups {
			a.recMFT(obs.KMFTWipe, id, int64(a.mfts[id].Epoch))
		}
	}
	a.mfts = make(map[simnet.Addr]*MFT)
	a.reduces = nil
	a.mgLoad = nil
	a.lastUnknownNack = nil
	a.cacheID, a.cacheMFT = 0, nil
}

// recMFT captures one MFT lifecycle event for a group; aVal is the epoch
// involved. Callers on hot paths guard with a.sw.Tracer().On().
func (a *Accel) recMFT(k obs.Kind, group simnet.Addr, aVal int64) {
	tr := a.sw.Tracer()
	if !tr.On() {
		return
	}
	tr.Record(a.sw.Engine().Now(), k, obs.RNone, -1, uint8(simnet.MRP), 0, uint32(group), 0, 0, 0, 0, aVal, 0)
}

// MFT returns the switch's table for a group, or nil.
func (a *Accel) MFT(id simnet.Addr) *MFT { return a.mfts[id] }

// Groups returns how many MFTs the switch currently holds.
func (a *Accel) Groups() int { return len(a.mfts) }

// MemoryBytes totals the modeled MFT memory on this switch.
func (a *Accel) MemoryBytes() int {
	total := 0
	for _, m := range a.mfts {
		total += m.MemoryBytes()
	}
	return total
}

// Handle implements simnet.SwitchHook. Cepheus traffic is classified by a
// multicast destination (data, feedback and MRP all carry dstIP = McstID
// once inside the fabric); everything else falls through to unicast
// forwarding. Every consumed packet is released here: the per-type handlers
// replicate via Clone and never retain the original.
func (a *Accel) Handle(sw *simnet.Switch, p *simnet.Packet, in *simnet.Port) bool {
	if p.Type == simnet.MRP && p.Dst.IsMulticast() {
		a.handleMRP(p, in)
		p.Release()
		return true
	}
	if !p.Dst.IsMulticast() {
		return false
	}
	mft := a.cacheMFT
	if p.Dst != a.cacheID || mft == nil {
		mft = a.mfts[p.Dst]
		if mft != nil {
			a.cacheID, a.cacheMFT = p.Dst, mft
		}
	}
	if mft == nil {
		// No registration reached this switch — or a crash wiped it. Never
		// forward blind: drop, and for data packets NACK the source so its
		// controller learns the tree is gone and re-registers, instead of
		// the sender discovering the black hole only via safeguard timeout.
		if p.Type == simnet.Data {
			a.Stats.UnknownGroupDrops++
			grp, src := p.Dst, p.Src
			a.sw.Drop(p, obs.RUnknownGroup, in.ID)
			a.nackUnknownGroup(grp, src)
			return true
		}
		p.Release()
		return true
	}
	switch p.Type {
	case simnet.Data:
		if p.Reduce {
			// Many-to-one contribution flowing up toward the root.
			if in.ID != mft.AckOutPort {
				a.handleReduce(mft, p, in)
			}
		} else {
			a.handleData(mft, p, in)
		}
	case simnet.Ack:
		if in.ID == mft.AckOutPort {
			// Root-side feedback for a reduction: replicate down.
			a.replicateFeedbackDown(mft, p, in)
		} else {
			a.handleAck(mft, p, in)
		}
	case simnet.Nack:
		if in.ID == mft.AckOutPort {
			a.replicateFeedbackDown(mft, p, in)
		} else {
			a.handleNack(mft, p, in)
		}
	case simnet.CNP:
		if in.ID == mft.AckOutPort {
			a.replicateFeedbackDown(mft, p, in)
		} else {
			a.handleCNP(mft, p, in)
		}
	default:
		return false
	}
	p.Release()
	return true
}

// ---- MRP registration (§III-C) ----

func (a *Accel) handleMRP(p *simnet.Packet, in *simnet.Port) {
	pay := p.Meta.(*MRPPayload)
	a.Stats.MRPProcessed++
	mft := a.mfts[pay.McstID]
	if mft != nil && pay.Epoch != mft.Epoch {
		if staleEpoch(pay.Epoch, mft.Epoch) {
			// A retransmitted or reordered chunk from a superseded
			// registration: discard rather than corrupt the live tree.
			a.Stats.StaleMRPDropped++
			a.recMFT(obs.KMFTStale, pay.McstID, int64(pay.Epoch))
			return
		}
		// A newer generation registers: the old tree is dead state. Replace
		// it wholesale — merged entries from different epochs could route
		// through links the controller now knows to be gone.
		a.Stats.EpochRebuilds++
		a.recMFT(obs.KMFTRebuild, pay.McstID, int64(pay.Epoch))
		mft = nil
		delete(a.mfts, pay.McstID)
		a.cacheID, a.cacheMFT = 0, nil
	}
	if mft == nil {
		if a.Cfg.MaxGroups > 0 && len(a.mfts) >= a.Cfg.MaxGroups {
			a.Stats.MRPRejected++
			a.reject(pay, "switch "+a.sw.Name+": MFT capacity exhausted")
			return
		}
		mft = NewMFT(pay.McstID, a.sw.NumPorts())
		mft.Epoch = pay.Epoch
		a.mfts[pay.McstID] = mft
		a.recMFT(obs.KMFTInstall, pay.McstID, int64(pay.Epoch))
	}
	if a.mgLoad == nil {
		a.mgLoad = make([]int, a.sw.NumPorts())
	}

	// The arrival port joins the MDT: it is the upstream path toward the
	// registration root. Marking it keeps the tree floodable from any
	// entry point, which is what source switching relies on.
	mft.EnsureEntry(in.ID)

	// Route every node record, grouping downstream forwards per port. A
	// member this switch has no route to (routes repaired around a dead
	// link or switch) is skipped: the rest of the tree still installs.
	downstream := make(map[int][]NodeInfo)
	for _, n := range pay.Nodes {
		port, direct, ok := a.routeNode(mft, n)
		if !ok {
			continue
		}
		e := mft.EnsureEntry(port)
		if direct {
			e.NextIsHost = true
			e.DstIP = n.IP
			e.DstQP = n.QPN
			e.WVA = n.WVA
			e.WRKey = n.WRKey
		}
		downstream[port] = append(downstream[port], n)
	}
	// Forward in ascending port order — map iteration order must never leak
	// into the packet serialization (the flight recorder would see it).
	ports := make([]int, 0, len(downstream))
	for port := range downstream {
		ports = append(ports, port)
	}
	sort.Ints(ports)
	for _, port := range ports {
		if port == in.ID {
			continue // never reflect registration back upstream
		}
		np := newMRPPacket(p.Src, &MRPPayload{
			McstID: pay.McstID, Seq: pay.Seq, Total: pay.Total, Epoch: pay.Epoch,
			CtrlIP: pay.CtrlIP, Nodes: downstream[port],
		})
		a.sw.Output(np, port, in)
	}
}

// routeNode finds the multicast routing port for one node: the directly
// connected port if the node is attached here; otherwise an ECMP candidate,
// preferring a port already in the MDT (delaying replication saves
// bandwidth), and breaking ties toward the port least used by other groups.
// ok is false when the FIB has no route to the node.
func (a *Accel) routeNode(mft *MFT, n NodeInfo) (port int, direct, ok bool) {
	for _, pt := range a.sw.Ports {
		if h, isHost := pt.Peer.Dev.(*simnet.Host); isHost && h.IP == n.IP {
			return pt.ID, true, true
		}
	}
	cands := a.sw.Route(n.IP)
	if len(cands) == 0 {
		return 0, false, false
	}
	for _, c := range cands {
		if mft.InMDT(c) {
			return c, false, true
		}
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if a.mgLoad[c] < a.mgLoad[best] {
			best = c
		}
	}
	a.mgLoad[best]++
	return best, false, true
}

// reject sends an MRPReject to the controller via unicast forwarding.
func (a *Accel) reject(pay *MRPPayload, reason string) {
	rp := simnet.NewPacket()
	rp.Type, rp.Src, rp.Dst = simnet.MRPReject, pay.McstID, pay.CtrlIP
	rp.Payload = 64
	rp.Meta = &confirmPayload{McstID: pay.McstID, Epoch: pay.Epoch, Reason: reason}
	a.sw.Forward(rp, nil)
}

// staleEpoch reports whether a is an older registration generation than b,
// under 16-bit serial-number arithmetic (RFC 1982 style) so long-lived
// groups survive epoch wraparound.
func staleEpoch(a, b uint16) bool {
	return int16(a-b) < 0
}

// nackUnknownGroup tells the data source's controller that this switch has
// no forwarding state for the group. The rejection is rate-limited per group
// and carries no epoch (the switch does not know one) — the controller
// treats it as an invalidation of a registered group.
func (a *Accel) nackUnknownGroup(grp, src simnet.Addr) {
	now := a.sw.Engine().Now()
	if a.lastUnknownNack == nil {
		a.lastUnknownNack = make(map[simnet.Addr]sim.Time)
	}
	if last, ok := a.lastUnknownNack[grp]; ok && now-last < a.Cfg.UnknownGroupNackHoldoff {
		return
	}
	a.lastUnknownNack[grp] = now
	a.Stats.UnknownGroupNacks++
	a.recMFT(obs.KMFTNack, grp, 0)
	rp := simnet.NewPacket()
	rp.Type, rp.Src, rp.Dst = simnet.MRPReject, grp, src
	rp.Payload = 64
	rp.Meta = &confirmPayload{
		McstID: grp, Epoch: epochUnknown,
		Reason: "switch " + a.sw.Name + ": no MFT for group (crashed or never registered)",
	}
	a.sw.Forward(rp, nil)
}

// ---- data replication and connection bridging (§III-B2) ----

func (a *Accel) handleData(mft *MFT, p *simnet.Packet, in *simnet.Port) {
	a.Stats.DataIn++
	if mft.AckOutPort != in.ID || mft.SrcIP != p.Src {
		if mft.SrcIP != 0 && mft.SrcIP != p.Src {
			mft.SourceSwitches++
		}
		mft.AckOutPort = in.ID
		mft.SrcIP = p.Src
		mft.SrcQP = p.SrcQP
		// Re-arm the aggregation trigger: the previous minimum owner may be
		// the port that just became the source-facing path, which never
		// carries ACKs; leaving TriPort there would stall aggregation until
		// the sender's safeguard timeout.
		mft.TriPort = -1
	}
	psn := int64(p.PSN)
	copies := 0
	for _, e := range mft.Paths {
		if e.Port == in.ID {
			continue
		}
		// Retransmit filtering: paths that already acknowledged this PSN
		// must not see it again (§III-D).
		if !a.Cfg.DisableRetransFilter && e.AckPSN != ackNone && psn <= e.AckPSN {
			a.Stats.RetransFiltered++
			continue
		}
		q := p.Clone()
		if e.NextIsHost {
			// Connection bridging (Fig 4): match the receiver's QP and
			// redirect feedback into the MFT via srcIP = McstID.
			q.Dst = e.DstIP
			q.DstQP = e.DstQP
			q.Src = mft.McstID
			if q.WriteVA != 0 || q.WriteRKey != 0 {
				q.WriteVA = e.WVA
				q.WriteRKey = e.WRKey
			}
			a.Stats.DataBridged++
		}
		copies++
		a.sw.Output(q, e.Port, in)
	}
	if copies > 1 {
		a.Stats.DataReplicated += uint64(copies - 1)
	}
	if copies == 0 && p.Retrans {
		// Every path already acknowledged this retransmission: regenerate
		// the aggregate so a sender stalled on a lost/step-skipped ACK
		// makes progress instead of retransmitting forever.
		a.tryEmit(mft)
	}
}

// ---- feedback handling (§III-D) ----

func (a *Accel) handleAck(mft *MFT, p *simnet.Packet, in *simnet.Port) {
	a.Stats.AcksIn++
	e := mft.Entry(in.ID)
	if e == nil {
		return // feedback from outside the MDT: drop
	}
	psn := int64(p.PSN)
	if e.AckPSN == ackNone || psn > e.AckPSN {
		e.AckPSN = psn
	}
	if a.Cfg.NaiveAckForwarding {
		// Ablation: forward an aggregate on every incoming ACK, with no
		// dedup — the "ACK exploding" behaviour the trigger condition
		// exists to prevent.
		if min, argmin, ok := mft.MinAck(); ok && min >= 0 {
			mft.AggAckPSN, mft.AggValid, mft.TriPort = min, true, argmin
			a.Stats.AcksEmitted++
			a.emitFeedback(mft, newFeedback(simnet.Ack, mft.McstID, uint64(min)))
		}
		return
	}
	// Trigger Condition: only an ACK on the port that owned the minimum at
	// the last emission (triPort) can trigger a new aggregated ACK, and
	// only if it advances past AggAckPSN. This is what keeps the sender's
	// ACK count low (the ACK-exploding mitigation).
	if mft.TriPort == -1 || (in.ID == mft.TriPort && (!mft.AggValid || psn > mft.AggAckPSN)) {
		a.tryEmit(mft)
	}
}

func (a *Accel) handleNack(mft *MFT, p *simnet.Packet, in *simnet.Port) {
	a.Stats.NacksIn++
	e := mft.Entry(in.ID)
	if e == nil {
		return
	}
	// A NACK with ePSN acknowledges everything below ePSN.
	acked := int64(p.PSN) - 1
	if e.AckPSN == ackNone || acked > e.AckPSN {
		e.AckPSN = acked
	}
	if !mft.MeValid || int64(p.PSN) < mft.MePSN {
		mft.MePSN = int64(p.PSN)
		mft.MeValid = true
	}
	a.tryEmit(mft)
}

// tryEmit re-evaluates the group's aggregate state and emits at most one
// feedback packet toward the source: a NACK when every surviving path has
// acknowledged exactly up to the lost packet (preventing NACK
// inter-covering), otherwise an aggregated ACK when the minimum advanced.
func (a *Accel) tryEmit(mft *MFT) {
	min, argmin, ok := mft.MinAck()
	if !ok {
		return
	}
	// Re-point the trigger at whichever port owns the minimum now. Doing
	// this on every evaluation (not only on emission) keeps the scheme
	// live when the straggler rotates between ports at a message tail.
	mft.TriPort = argmin
	now := a.sw.Engine().Now()
	if mft.MeValid && min+1 == mft.MePSN {
		dup := mft.MePSN == mft.lastNackPSN && now-mft.lastNackAt < a.Cfg.NackHoldoff
		if !dup {
			mft.lastNackPSN, mft.lastNackAt = mft.MePSN, now
			mft.AggAckPSN, mft.AggValid, mft.TriPort = min, true, argmin
			a.Stats.NacksEmitted++
			a.emitFeedback(mft, newFeedback(simnet.Nack, mft.McstID, uint64(mft.MePSN)))
		}
		// Discard the history either way: the NACK for this ePSN is out
		// (or suppressed as an in-flight duplicate).
		mft.MeValid = false
		return
	}
	if min < 0 {
		return // paths alive but nothing acknowledged yet
	}
	if mft.AggValid && min <= mft.AggAckPSN {
		return
	}
	mft.AggAckPSN, mft.AggValid, mft.TriPort = min, true, argmin
	a.Stats.AcksEmitted++
	a.emitFeedback(mft, newFeedback(simnet.Ack, mft.McstID, uint64(min)))
}

// newFeedback builds a pooled aggregate feedback packet addressed within the
// group (emitFeedback bridges it to the source's real connection at the leaf).
func newFeedback(t simnet.PacketType, group simnet.Addr, psn uint64) *simnet.Packet {
	p := simnet.NewPacket()
	p.Type, p.Src, p.Dst, p.PSN = t, group, group, psn
	return p
}

func (a *Accel) handleCNP(mft *MFT, p *simnet.Packet, in *simnet.Port) {
	a.Stats.CNPsIn++
	a.ageCNP(mft)
	mft.CNPCount[in.ID]++
	if !a.Cfg.DisableCNPFilter {
		// Pass only CNPs from the most congested link, so DCQCN matches
		// the sending rate to the most congested path (single-rate scheme).
		max, argmax := 0.0, -1
		for port, c := range mft.CNPCount {
			if c > max {
				max, argmax = c, port
			}
		}
		if argmax != in.ID {
			a.Stats.CNPsFiltered++
			return
		}
	}
	a.Stats.CNPsForwarded++
	a.emitFeedback(mft, p.Clone())
}

// ageCNP decays the congestion counters so the filter tracks changing
// network dynamics.
func (a *Accel) ageCNP(mft *MFT) {
	now := a.sw.Engine().Now()
	if now-mft.lastAging < a.Cfg.CNPAgingPeriod {
		return
	}
	elapsed := now - mft.lastAging
	mft.lastAging = now
	halvings := int(elapsed / a.Cfg.CNPAgingPeriod)
	if halvings > 30 {
		halvings = 30
	}
	factor := 1.0 / float64(int64(1)<<uint(halvings))
	for i := range mft.CNPCount {
		mft.CNPCount[i] *= factor
		if mft.CNPCount[i] < 0.01 {
			mft.CNPCount[i] = 0
		}
	}
}

// emitFeedback sends a feedback packet toward the source through
// AckOutPort. If the source is directly attached there, this switch is the
// final hop and rewrites the header to the source's real connection.
func (a *Accel) emitFeedback(mft *MFT, p *simnet.Packet) {
	if mft.AckOutPort < 0 {
		p.Release() // no data seen yet; nowhere to send feedback
		return
	}
	out := a.sw.Ports[mft.AckOutPort]
	if out.PeerIsHost() {
		p.Dst = mft.SrcIP
		p.DstQP = mft.SrcQP
	}
	a.sw.Output(p, mft.AckOutPort, nil)
}
