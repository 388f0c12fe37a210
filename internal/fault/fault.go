// Package fault is the deterministic fail-stop fault-injection subsystem:
// it kills and revives links, crashes and restarts switches, and flaps
// ports, all as events on the internal/sim engine so every run is
// bit-for-bit reproducible. The primitives compose into scripted scenarios
// (cmd/faultsim) and seeded chaos schedules (chaos.go); the detect →
// degrade → repair → restore pipeline in the root package is exercised
// against them.
//
// The fault model is fail-stop: a dead element transmits nothing and
// absorbs everything, with no byzantine corruption. A crashed switch loses
// its volatile state (the accelerator wipes every MFT via the switch's
// restart hook) but keeps its FIB, the way reloaded switch configuration
// survives a power cycle while FPGA SRAM does not.
package fault

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// Kind classifies a fault transition.
type Kind string

// The fault-event kinds an Injector emits.
const (
	LinkDown      Kind = "link-down"
	LinkUp        Kind = "link-up"
	SwitchCrash   Kind = "switch-crash"
	SwitchRestart Kind = "switch-restart"
	PortFlap      Kind = "port-flap"
	LinkDegrade   Kind = "link-degrade" // gray impairment installed (gray.go)
	LinkRepair    Kind = "link-repair"  // gray impairment cleared
)

// Event records one fault transition.
type Event struct {
	At     sim.Time
	Kind   Kind
	Target string
}

func (e Event) String() string { return fmt.Sprintf("%v %s %s", e.At, e.Kind, e.Target) }

// Stats counts fault transitions, for the root Cluster metrics.
type Stats struct {
	LinkDowns      uint64
	LinkUps        uint64
	SwitchCrashes  uint64
	SwitchRestarts uint64
	PortFlaps      uint64
	LinkDegrades   uint64 // gray impairment episodes installed
	LinkRepairs    uint64 // gray impairment episodes cleared
	ChaosEvents    uint64 // transitions injected by a chaos schedule
	RouteRepairs   uint64 // automatic FIB recomputations
}

// Injector drives fail-stop faults into one network. All mutations happen
// on the simulation engine's clock; scheduling helpers make scripted
// scenarios one-liners.
type Injector struct {
	Net   *topo.Network
	Stats Stats

	// AutoRepairRoutes recomputes every ECMP FIB after each transition, so
	// unicast traffic (and subsequent MDT registrations) immediately avoid
	// dead elements. Scenario runners usually want this on; tests that
	// exercise stale-route behaviour leave it off.
	AutoRepairRoutes bool

	// OnEvent observes every transition (after any route repair).
	OnEvent func(Event)

	// Log keeps every transition in order, for scenario assertions and the
	// faultsim timeline.
	Log []Event

	eng *sim.Engine

	// Hold-counted episode state (see DownEpisode/CrashEpisode and gray.go):
	// overlapping episodes on the same element reference-count their holds,
	// so a repair only revives the element when the LAST overlapping episode
	// releases it, and a fail-stop repair can never strip a still-active
	// degradation. Maps are populated at scheduling time; the scheduled
	// callbacks touch only the per-element structs.
	linkHolds map[string]*linkHold
	swHolds   map[*simnet.Switch]*swHold
	grays     map[*simnet.Port]*grayStack
}

// linkHold reference-counts fail-stop episodes on one link (both directions
// fail and revive together, keyed direction-insensitively).
type linkHold struct {
	pt    *simnet.Port
	downs int
}

// swHold reference-counts crash episodes on one switch.
type swHold struct {
	sw      *simnet.Switch
	crashes int
}

// NewInjector binds an injector to a network.
func NewInjector(net *topo.Network) *Injector {
	return &Injector{
		Net: net, eng: net.Eng,
		linkHolds: make(map[string]*linkHold),
		swHolds:   make(map[*simnet.Switch]*swHold),
		grays:     make(map[*simnet.Port]*grayStack),
	}
}

func (in *Injector) record(kind Kind, target string) {
	ev := Event{At: in.eng.Now(), Kind: kind, Target: target}
	in.Log = append(in.Log, ev)
	if in.AutoRepairRoutes {
		in.Net.RebuildRoutes()
		in.Stats.RouteRepairs++
	}
	if in.OnEvent != nil {
		in.OnEvent(ev)
	}
}

func linkName(pt *simnet.Port) string {
	if pt.Peer == nil {
		return fmt.Sprintf("%s.%d<->?", pt.Dev.DeviceName(), pt.ID)
	}
	return fmt.Sprintf("%s.%d<->%s.%d", pt.Dev.DeviceName(), pt.ID, pt.Peer.Dev.DeviceName(), pt.Peer.ID)
}

// linkKey identifies a link direction-insensitively: episodes targeting the
// two ends of the same link must share one hold counter, or an overlap could
// double-revive.
func linkKey(pt *simnet.Port) string {
	a := fmt.Sprintf("%s.%d", pt.Dev.DeviceName(), pt.ID)
	if pt.Peer == nil {
		return a + "|?"
	}
	b := fmt.Sprintf("%s.%d", pt.Peer.Dev.DeviceName(), pt.Peer.ID)
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

func (in *Injector) holdFor(pt *simnet.Port) *linkHold {
	k := linkKey(pt)
	h := in.linkHolds[k]
	if h == nil {
		h = &linkHold{pt: pt}
		in.linkHolds[k] = h
	}
	return h
}

func (in *Injector) swHoldFor(sw *simnet.Switch) *swHold {
	h := in.swHolds[sw]
	if h == nil {
		h = &swHold{sw: sw}
		in.swHolds[sw] = h
	}
	return h
}

// holdDown takes one episode's down-hold on a link; the link fail-stops on
// the first hold only.
func (in *Injector) holdDown(h *linkHold) {
	h.downs++
	if h.downs > 1 {
		return
	}
	pt := h.pt
	pt.SetDown(true)
	if pt.Peer != nil {
		pt.Peer.SetDown(true)
	}
	in.Stats.LinkDowns++
	in.record(LinkDown, linkName(pt))
}

// releaseDown drops one episode's down-hold; the link revives only when the
// last overlapping episode lets go — the repair-idempotence property that
// paired down/up scheduling lacked.
func (in *Injector) releaseDown(h *linkHold) {
	if h.downs == 0 {
		return
	}
	h.downs--
	if h.downs > 0 {
		return
	}
	pt := h.pt
	pt.SetDown(false)
	if pt.Peer != nil {
		pt.Peer.SetDown(false)
	}
	in.Stats.LinkUps++
	in.record(LinkUp, linkName(pt))
}

func (in *Injector) holdCrash(h *swHold) {
	h.crashes++
	if h.crashes > 1 {
		return
	}
	h.sw.Crash()
	in.Stats.SwitchCrashes++
	in.record(SwitchCrash, h.sw.Name)
}

func (in *Injector) releaseCrash(h *swHold) {
	if h.crashes == 0 {
		return
	}
	h.crashes--
	if h.crashes > 0 {
		return
	}
	h.sw.Restart()
	in.Stats.SwitchRestarts++
	in.record(SwitchRestart, h.sw.Name)
}

// DownEpisode schedules a hold-counted fail-stop episode on pt's link over
// [at, until). Overlapping episodes on the same link compose: the link is
// down while any episode holds it and revives exactly once, when the last
// one ends. Sequential runs only, like all fail-stop injection.
func (in *Injector) DownEpisode(pt *simnet.Port, at, until sim.Time) {
	h := in.holdFor(pt)
	in.eng.Schedule(at, func() { in.holdDown(h) })
	in.eng.Schedule(until, func() { in.releaseDown(h) })
}

// CrashEpisode schedules a hold-counted crash episode on sw over [at,
// until), with the same overlap semantics as DownEpisode.
func (in *Injector) CrashEpisode(sw *simnet.Switch, at, until sim.Time) {
	h := in.swHoldFor(sw)
	in.eng.Schedule(at, func() { in.holdCrash(h) })
	in.eng.Schedule(until, func() { in.releaseCrash(h) })
}

// LinkDown fail-stops both directions of the link pt belongs to: queued and
// in-flight frames are lost, and nothing passes until LinkUp.
func (in *Injector) LinkDown(pt *simnet.Port) {
	if pt.Down() && (pt.Peer == nil || pt.Peer.Down()) {
		return
	}
	pt.SetDown(true)
	if pt.Peer != nil {
		pt.Peer.SetDown(true)
	}
	in.Stats.LinkDowns++
	in.record(LinkDown, linkName(pt))
}

// LinkUp revives both directions of the link pt belongs to.
func (in *Injector) LinkUp(pt *simnet.Port) {
	if !pt.Down() && (pt.Peer == nil || !pt.Peer.Down()) {
		return
	}
	pt.SetDown(false)
	if pt.Peer != nil {
		pt.Peer.SetDown(false)
	}
	in.Stats.LinkUps++
	in.record(LinkUp, linkName(pt))
}

// HostLink returns the access link of host i (the host-side port); handy
// for the common "kill the ToR→host link" scenario.
func (in *Injector) HostLink(i int) *simnet.Port { return in.Net.Hosts[i].NIC }

// CrashSwitch fail-stops a switch: every port goes down and the
// accelerator's volatile state (the MFTs) is wiped when it restarts.
func (in *Injector) CrashSwitch(sw *simnet.Switch) {
	if sw.Crashed() {
		return
	}
	sw.Crash()
	in.Stats.SwitchCrashes++
	in.record(SwitchCrash, sw.Name)
}

// RestartSwitch brings a crashed switch back with an empty MFT.
func (in *Injector) RestartSwitch(sw *simnet.Switch) {
	if !sw.Crashed() {
		return
	}
	sw.Restart()
	in.Stats.SwitchRestarts++
	in.record(SwitchRestart, sw.Name)
}

// Flap takes the link down now and back up after downFor — the classic
// flapping-port pathology that recovery hysteresis exists to absorb. Flaps
// are hold-counted like episodes, so a flap overlapping a longer down
// episode cannot revive the link early.
func (in *Injector) Flap(pt *simnet.Port, downFor sim.Time) {
	in.Stats.PortFlaps++
	in.record(PortFlap, linkName(pt))
	h := in.holdFor(pt)
	in.holdDown(h)
	in.eng.After(downFor, func() { in.releaseDown(h) })
}

// ---- scheduling helpers (absolute simulation time) ----

// At schedules an arbitrary fault action.
func (in *Injector) At(t sim.Time, fn func()) { in.eng.Schedule(t, fn) }

// LinkDownAt schedules LinkDown at t.
func (in *Injector) LinkDownAt(t sim.Time, pt *simnet.Port) {
	in.eng.Schedule(t, func() { in.LinkDown(pt) })
}

// LinkUpAt schedules LinkUp at t.
func (in *Injector) LinkUpAt(t sim.Time, pt *simnet.Port) {
	in.eng.Schedule(t, func() { in.LinkUp(pt) })
}

// CrashAt schedules CrashSwitch at t.
func (in *Injector) CrashAt(t sim.Time, sw *simnet.Switch) {
	in.eng.Schedule(t, func() { in.CrashSwitch(sw) })
}

// RestartAt schedules RestartSwitch at t.
func (in *Injector) RestartAt(t sim.Time, sw *simnet.Switch) {
	in.eng.Schedule(t, func() { in.RestartSwitch(sw) })
}

// FlapAt schedules Flap at t.
func (in *Injector) FlapAt(t sim.Time, pt *simnet.Port, downFor sim.Time) {
	in.eng.Schedule(t, func() { in.Flap(pt, downFor) })
}
