package simnet

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/sim"
)

// SwitchHook lets the Cepheus accelerator (internal/core) sit in the
// forwarding path, the way the paper's FPGA board is attached to the
// Ethernet switch via ACL redirection. Handle returns true when it consumed
// the packet; false falls through to normal unicast forwarding.
type SwitchHook interface {
	Handle(sw *Switch, p *Packet, in *Port) bool
}

// PFCConfig enables priority flow control with ingress-buffer thresholds.
// The model uses explicit PAUSE/RESUME rather than timed quanta; the
// hysteresis between XOFF and XON plays the role of pause refreshing.
type PFCConfig struct {
	Enabled   bool
	XOffBytes int
	XOnBytes  int
}

// DefaultPFC returns the lossless profile from DESIGN.md §5.
func DefaultPFC() PFCConfig {
	return PFCConfig{Enabled: true, XOffBytes: 2 << 20, XOnBytes: 1 << 20}
}

// ingressAccount tracks, per ingress port, how many bytes received on that
// port currently sit in this switch's egress queues. Crossing XOFF pauses
// the upstream transmitter; draining below XON resumes it.
type ingressAccount struct {
	sw     *Switch
	in     *Port
	bytes  int
	paused bool
}

func (a *ingressAccount) add(n int) {
	a.bytes += n
	cfg := a.sw.PFC
	if cfg.Enabled && !a.paused && a.bytes >= cfg.XOffBytes {
		a.paused = true
		a.in.Stats.PauseSent++
		f := NewPacket()
		f.Type = Pause
		a.in.SendUrgent(f)
	}
}

func (a *ingressAccount) release(n int) {
	a.bytes -= n
	cfg := a.sw.PFC
	if cfg.Enabled && a.paused && a.bytes <= cfg.XOnBytes {
		a.paused = false
		a.in.Stats.ResumeSent++
		f := NewPacket()
		f.Type = Resume
		a.in.SendUrgent(f)
	}
}

// Switch is a store-and-forward Ethernet switch with per-egress queues,
// ECMP unicast forwarding, optional PFC, optional random loss injection,
// and an optional accelerator hook.
type Switch struct {
	Name string
	PFC  PFCConfig

	// Index is the switch's position in its network's switch list, which
	// topology code uses to keep per-switch state in dense slices.
	Index int

	// fib is the FIB as a dense table: fib[i] indexes sets, the
	// equal-cost egress ports toward address fibBase+i, and flows are
	// hashed onto one of them. Host addresses are dense, so the table spans
	// the routed hosts with no map. sets works like a hardware ECMP group
	// table: each distinct port set is stored once (at most k+1 on a
	// k-ary fat-tree), so an entry costs 2 bytes, not a slice header.
	// sets[0] is nil, meaning no route (NewSwitch and ResetFIB keep it
	// there). See Route and Intern.
	fib     []uint16
	fibBase Addr
	sets    [][]int

	// Hook, when set, sees every packet before unicast forwarding.
	Hook SwitchHook

	// LossRate drops each forwarded Data packet with this probability,
	// emulating the paper's "randomly discarding packets in the middle
	// switches" (Fig 13).
	LossRate float64

	// ControlLossRate drops forwarded control packets (MRP, confirmations,
	// ACK/NACK/CNP — everything except PFC) with this probability. Data-only
	// loss leaves the MRP retry and feedback-recovery paths untested; this
	// closes that blind spot.
	ControlLossRate float64

	// DataDrops counts loss-injected discards.
	DataDrops uint64

	// CtrlDrops counts control packets discarded by ControlLossRate.
	CtrlDrops uint64

	// CrashDrops counts packets that arrived or were emitted while the
	// switch was crashed.
	CrashDrops uint64

	// NoRouteDrops counts packets discarded for lack of a FIB entry. With a
	// static fabric this stays zero; once route repair removes unreachable
	// destinations from FIBs, in-flight packets (and go-back-N
	// retransmissions) addressed to them are legitimately unroutable and are
	// dropped here instead of crashing the simulation.
	NoRouteDrops uint64

	// OnRestart, when set, fires after Restart restores the ports — the
	// accelerator hooks it to model volatile state (the MFT) being wiped by
	// a crash.
	OnRestart func()

	Ports    []*Port
	accounts []*ingressAccount

	eng  *sim.Engine
	down bool

	// Observability: the switch-level flight-recorder handle (shared with
	// its ports and its attached accelerator; nil while tracing is off).
	tr *obs.Tracer

	// gs is the cluster's group-stats registry (nil while group attribution
	// is off); shared with the switch's ports like tr.
	gs *obs.GroupStats
}

// SetTracer attaches the flight-recorder handle and propagates it to every
// port. Switch-scoped events (crash/loss/no-route drops) record with the
// ingress or egress port id where one exists, -1 otherwise.
func (sw *Switch) SetTracer(tr *obs.Tracer) {
	sw.tr = tr
	for _, pt := range sw.Ports {
		pt.SetTracer(tr)
	}
}

// Tracer returns the switch's flight-recorder handle (nil when tracing is
// off), so the attached accelerator can record under the same device.
func (sw *Switch) Tracer() *obs.Tracer { return sw.tr }

// SetFabric attaches the cluster's queue-depth histogram to the switch's
// ports.
func (sw *Switch) SetFabric(fab *obs.Fabric) {
	for _, pt := range sw.Ports {
		pt.SetFabric(fab)
	}
}

// SetGroupStats attaches the cluster's group-stats registry to the switch
// and its ports.
func (sw *Switch) SetGroupStats(gs *obs.GroupStats) {
	sw.gs = gs
	for _, pt := range sw.Ports {
		pt.SetGroupStats(gs)
	}
}

// Drop is the switch's one sink for a frame it kills, port being the
// ingress or egress port the drop is recorded under (-1 for none). In this
// order it counts the drop under r's counter, books it against the frame's
// group, records KDrop, and releases p. The attached accelerator drops
// through it too; it owns the counter of the reason it adds
// (RUnknownGroup), so that reason bumps no switch counter.
func (sw *Switch) Drop(p *Packet, r obs.Reason, port int) {
	switch r {
	case obs.RCrash:
		sw.CrashDrops++
	case obs.RNoRoute:
		sw.NoRouteDrops++
	case obs.RLoss:
		sw.DataDrops++
	case obs.RCtrlLoss:
		sw.CtrlDrops++
	}
	size := int64(p.Size())
	sw.gs.DropFrame(uint32(p.Src), uint32(p.Dst), sw.eng.Now(), size)
	if sw.tr.On() {
		sw.tr.Record(sw.eng.Now(), obs.KDrop, r, port, uint8(p.Type), uint32(p.Src), uint32(p.Dst), p.SrcQP, p.DstQP, p.PSN, p.MsgID, 0, size)
	}
	p.Release()
}

// NewSwitch creates a switch with no ports.
func NewSwitch(eng *sim.Engine, name string) *Switch {
	return &Switch{Name: name, eng: eng, sets: [][]int{nil}}
}

// DeviceName implements Device.
func (sw *Switch) DeviceName() string { return sw.Name }

// Engine returns the simulation engine driving this switch.
func (sw *Switch) Engine() *sim.Engine { return sw.eng }

// AddPort creates a new port on the switch and returns it. Switch egress
// queues are not drop-tail bounded: shared-buffer occupancy is governed by
// PFC ingress accounting (when enabled), matching a lossless RoCE fabric;
// set QueueLimit explicitly to model a shallow-buffer switch.
func (sw *Switch) AddPort(rateBps float64, prop sim.Time) *Port {
	p := NewPort(sw.eng, sw, rateBps, prop)
	p.ID = len(sw.Ports)
	p.QueueLimit = 0
	p.ECN = DefaultECN()
	sw.Ports = append(sw.Ports, p)
	sw.accounts = append(sw.accounts, &ingressAccount{sw: sw, in: p})
	return p
}

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.Ports) }

// Crashed reports whether the switch is in the failed state.
func (sw *Switch) Crashed() bool { return sw.down }

// Crash fail-stops the switch: every port goes down (halting egress and
// dropping queued and in-flight frames) and all further arrivals are
// discarded until Restart.
func (sw *Switch) Crash() {
	if sw.down {
		return
	}
	sw.down = true
	for _, pt := range sw.Ports {
		pt.SetDown(true)
	}
}

// Restart brings a crashed switch back: ports come up and ingress-buffer
// accounting resets (the shared buffer is volatile), then OnRestart fires so
// attached state — the accelerator's MFTs — can model its own volatility.
// The FIB survives, as reloaded switch configuration would.
func (sw *Switch) Restart() {
	if !sw.down {
		return
	}
	sw.down = false
	for _, a := range sw.accounts {
		a.bytes = 0
		a.paused = false
	}
	for _, pt := range sw.Ports {
		pt.SetDown(false)
	}
	if sw.OnRestart != nil {
		sw.OnRestart()
	}
}

// Receive implements Device.
func (sw *Switch) Receive(p *Packet, in *Port) {
	if sw.down {
		sw.Drop(p, obs.RCrash, portID(in))
		return
	}
	switch p.Type {
	case Pause:
		in.setPaused(true)
		p.Release()
		return
	case Resume:
		in.setPaused(false)
		p.Release()
		return
	}
	if sw.Hook != nil && sw.Hook.Handle(sw, p, in) {
		return
	}
	sw.Forward(p, in)
}

// Forward routes p by its destination address using the FIB. Packets with
// no route are counted and dropped, as a real switch would.
func (sw *Switch) Forward(p *Packet, in *Port) {
	ports := sw.Route(p.Dst)
	if len(ports) == 0 {
		sw.Drop(p, obs.RNoRoute, portID(in))
		return
	}
	out := ports[0]
	if len(ports) > 1 {
		out = ports[flowHash(p)%uint32(len(ports))]
	}
	sw.Output(p, out, in)
}

// Output transmits p through egress port out, applying loss injection and
// PFC ingress accounting. in may be nil for locally generated packets.
func (sw *Switch) Output(p *Packet, out int, in *Port) {
	if sw.down {
		sw.Drop(p, obs.RCrash, out)
		return
	}
	if sw.LossRate > 0 && p.Type == Data && sw.eng.Rand().Float64() < sw.LossRate {
		sw.Drop(p, obs.RLoss, out)
		return
	}
	if sw.ControlLossRate > 0 && isLossyControl(p.Type) && sw.eng.Rand().Float64() < sw.ControlLossRate {
		sw.Drop(p, obs.RCtrlLoss, out)
		return
	}
	if sw.PFC.Enabled && in != nil && in.Dev == Device(sw) {
		p.acct = sw.accounts[in.ID]
	}
	sw.Ports[out].Send(p)
}

// portID is the id a switch-level drop records for ingress port in: -1 for a
// locally generated packet.
func portID(in *Port) int {
	if in == nil {
		return -1
	}
	return in.ID
}

// isLossyControl classifies the control traffic ControlLossRate applies to.
// PFC PAUSE/RESUME stay lossless: they model MAC-level frames on a dedicated
// path, and losing them would deadlock the flow-control model rather than
// exercise a protocol retry.
func isLossyControl(t PacketType) bool {
	switch t {
	case MRP, MRPConfirm, MRPReject, Ack, Nack, CNP:
		return true
	}
	return false
}

// Route returns the equal-cost egress ports toward dst in FIB order, or
// nil when the switch has no route to it. The caller must not modify the
// slice: every destination with the same port set shares it.
func (sw *Switch) Route(dst Addr) []int {
	if i := uint32(dst - sw.fibBase); i < uint32(len(sw.fib)) {
		return sw.sets[sw.fib[i]]
	}
	return nil
}

// maxFIBSpan bounds the address range one dense FIB covers, so routing two
// far-apart addresses fails loudly instead of allocating gigabytes.
const maxFIBSpan = 1 << 22

// maxFIBSets is the most distinct port sets a FIB entry can index: entries
// are 16 bits and index 0 means no route.
const maxFIBSets = 1<<16 - 1

// PortSet is a handle to one of a switch's interned equal-cost port sets.
// It is valid on the switch that interned it until the next ResetFIB.
type PortSet uint16

// Intern returns the handle of the port set equal to ports (same ports, same
// order), storing a copy of ports if the switch holds no such set yet. An
// empty set is the no-route handle. The switch never aliases ports.
func (sw *Switch) Intern(ports []int) PortSet {
	if len(ports) == 0 {
		return 0
	}
	for i, s := range sw.sets[1:] {
		if slices.Equal(s, ports) {
			return PortSet(i + 1)
		}
	}
	if len(sw.sets) > maxFIBSets {
		panic(fmt.Sprintf("simnet: %s: FIB needs more than %d distinct port sets", sw.Name, maxFIBSets))
	}
	sw.sets = append(sw.sets, slices.Clone(ports))
	return PortSet(len(sw.sets) - 1)
}

// fibSlot returns dst's FIB entry, widening the table to cover dst.
func (sw *Switch) fibSlot(dst Addr) *uint16 {
	if len(sw.fib) == 0 {
		sw.fibBase = dst
	}
	lo := min(dst, sw.fibBase)
	n := max(int(dst-lo)+1, int(sw.fibBase-lo)+len(sw.fib))
	if n > maxFIBSpan {
		panic("simnet: " + sw.Name + ": FIB destinations span too many addresses")
	}
	if lo < sw.fibBase {
		sw.fib = append(make([]uint16, sw.fibBase-lo, n), sw.fib...)
		sw.fibBase = lo
	}
	if n > len(sw.fib) {
		sw.fib = append(sw.fib, make([]uint16, n-len(sw.fib))...)
	}
	return &sw.fib[dst-sw.fibBase]
}

// AddRoute appends an equal-cost egress port for dst. The extended set is
// interned like any other, so no other destination's route changes.
func (sw *Switch) AddRoute(dst Addr, port int) {
	var buf [8]int
	sw.SetRoutes(dst, append(append(buf[:0], sw.Route(dst)...), port))
}

// SetRoutes installs the full equal-cost port set for dst in one write. The
// switch interns a copy, so the caller keeps ownership of ports.
func (sw *Switch) SetRoutes(dst Addr, ports []int) {
	sw.SetPortSet(dst, sw.Intern(ports))
}

// SetPortSet installs an interned port set as dst's route: one 2-byte write,
// so a caller routing many destinations through one set interns it once.
func (sw *Switch) SetPortSet(dst Addr, s PortSet) {
	if int(s) >= len(sw.sets) {
		panic(fmt.Sprintf("simnet: %s: port set %d was not interned here", sw.Name, s))
	}
	*sw.fibSlot(dst) = uint16(s)
}

// ResetFIB discards every route and interned port set ahead of a rebuild
// and sizes the table for the n destinations starting at lo, so a rebuild
// that installs them fills it without regrowing. Routes outside that span
// still install.
func (sw *Switch) ResetFIB(lo Addr, n int) {
	sw.fib, sw.fibBase, sw.sets = make([]uint16, n), lo, [][]int{nil}
}

// FIBSize reports the FIB's footprint: the bytes its dense entry table
// holds, and the number of distinct non-empty port sets it indexes.
func (sw *Switch) FIBSize() (entryBytes, sets int) {
	return cap(sw.fib) * int(unsafe.Sizeof(sw.fib[0])), len(sw.sets) - 1
}

// flowHash spreads flows across ECMP members (FNV-1a over the 5-tuple-ish
// fields).
func flowHash(p *Packet) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= 16777619
			v >>= 8
		}
	}
	mix(uint32(p.Src))
	mix(uint32(p.Dst))
	mix(p.SrcQP)
	mix(p.DstQP)
	return h
}
