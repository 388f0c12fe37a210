package cepheus

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/roce"
	"repro/internal/sim"
)

// RecoveryOptions tunes a ResilientGroup's detect/degrade/repair/restore
// cycle. The zero value picks defaults suitable for the simulated fabrics.
type RecoveryOptions struct {
	// Threshold and Window parameterize the throughput safeguard (§V-D):
	// trip when acknowledged progress falls below Threshold times the recent
	// best for consecutive windows. Defaults: 0.5 and 1ms.
	Threshold float64
	Window    sim.Time

	// Deadline bounds a native broadcast attempt. If the transfer has not
	// completed Deadline after posting, the group degrades even if the
	// safeguard has no throughput baseline yet (e.g. a fault during the
	// very first window). Default 100ms; negative disables.
	Deadline sim.Time

	// ReprobeInterval is how often a degraded group repairs routes and
	// re-attempts MRP registration over the surviving fabric. Default 10ms.
	ReprobeInterval sim.Time

	// RestoreHysteresis is how many consecutive successful re-registrations
	// are required before native multicast is trusted again (default 2).
	// One success proves the control plane answered once; hysteresis guards
	// against flapping elements re-failing immediately.
	RestoreHysteresis int

	// Policy bounds each registration attempt (nil: DefaultRegisterPolicy).
	Policy *core.RegisterPolicy
}

func (o *RecoveryOptions) fill() {
	if o.Threshold == 0 {
		o.Threshold = 0.5
	}
	if o.Window == 0 {
		o.Window = sim.Millisecond
	}
	if o.Deadline == 0 {
		o.Deadline = 100 * sim.Millisecond
	}
	if o.ReprobeInterval == 0 {
		o.ReprobeInterval = 10 * sim.Millisecond
	}
	if o.RestoreHysteresis == 0 {
		o.RestoreHysteresis = 2
	}
	if o.Policy == nil {
		p := core.DefaultRegisterPolicy()
		o.Policy = &p
	}
}

// RecoveryStats counts the observable transitions of the recovery pipeline.
type RecoveryStats struct {
	Trips       uint64 // safeguard throughput trips
	Invalidates uint64 // fabric-initiated invalidations (stale-epoch NACKs)
	Deadlines   uint64 // native broadcasts abandoned on the attempt deadline

	SchemeSwitches uint64 // native→fallback and fallback→native transitions

	NativeDeliveries   uint64 // per-member deliveries over switch multicast
	FallbackDeliveries uint64 // per-member deliveries over AMcast unicast

	Reprobes        uint64 // re-registration attempts from fallback
	ReprobeSkips    uint64 // re-probe ticks skipped (members unreachable)
	ReprobeFailures uint64 // re-registrations that failed
	Restores        uint64 // successful returns to native multicast
	RouteRebuilds   uint64 // FIB recomputations around dead elements

	DeferredSends     uint64 // fallback unicasts deferred: receiver unreachable
	DupDeliveries     uint64 // duplicate deliveries suppressed
	CorruptDeliveries uint64 // deliveries whose size != the posted transfer
}

// RecoverySpan is one degrade episode, detection → first AMcast fallback →
// native restore. FirstFallbackAt and RestoreAt are negative until the
// corresponding transition happens (a span with RestoreAt < 0 is still
// degraded at the end of the run).
type RecoverySpan struct {
	Reason          string
	DetectAt        sim.Time
	FirstFallbackAt sim.Time
	RestoreAt       sim.Time
}

// Degraded returns how long the episode stayed off native multicast, or -1
// while still degraded.
func (s *RecoverySpan) Degraded() sim.Time {
	if s.RestoreAt < 0 {
		return -1
	}
	return s.RestoreAt - s.DetectAt
}

// ResilientGroup wraps a Cepheus multicast group with the end-to-end
// recovery pipeline: a throughput safeguard and fabric invalidations detect
// faults; on degrade the group flushes in-flight native state, repairs
// unicast routes around dead elements and completes transfers with AMcast
// n-unicast; a periodic re-probe re-registers the group over the surviving
// fabric and, after RestoreHysteresis consecutive successes, restores
// native switch multicast (re-aligning PSNs first).
//
// Bcast is reliable under fail-stop faults: done fires only when every
// member holds the complete, correctly sized message, however many scheme
// switches that took.
type ResilientGroup struct {
	Group *core.Group
	Stats RecoveryStats
	Opts  RecoveryOptions

	// OnEvent, when set, receives a log line per recovery transition.
	OnEvent func(event string)

	c         *Cluster
	eng       *sim.Engine // the leader host's: runs the recovery timers
	fallback  bool
	safeguard *core.Safeguard
	root      int     // current native source (member index)
	bestRate  float64 // best progress norm carried across safeguard re-arms

	sendQP  map[[2]int]*roce.QP // fallback pairwise QPs, [from][to]
	consec  int                 // consecutive successful re-registrations
	reprobe *sim.Timer
	probing bool // a re-registration is in flight

	spans []RecoverySpan

	bc *bcastState
}

// RecoverySpans returns every degrade episode so far, in order (the last
// entry has RestoreAt < 0 if the group is still degraded).
func (r *ResilientGroup) RecoverySpans() []RecoverySpan { return r.spans }

// bcastState is one in-progress reliable broadcast.
type bcastState struct {
	root, size int
	done       func()
	delivered  []bool
	inflight   []bool // fallback unicast posted, not yet delivered
	remaining  int
	deadline   *sim.Timer
}

// NewResilientGroup creates and registers a multicast group over the given
// host indices (members[leader] hosts the controller) and arms the recovery
// pipeline around it. Registration uses the bounded-retransmission policy,
// so it succeeds under lossy control planes that would time out Cluster.
// NewGroup's single attempt.
func (c *Cluster) NewResilientGroup(members []int, leader int, opts RecoveryOptions) (*ResilientGroup, error) {
	opts.fill()
	g, err := c.registerGroup(members, leader, *opts.Policy)
	if err != nil {
		return nil, err
	}
	r := &ResilientGroup{
		Group: g, Opts: opts, c: c, eng: g.Members[leader].Host.Engine(),
		root:   leader,
		sendQP: make(map[[2]int]*roce.QP),
	}
	g.OnInvalidate = func(reason string) {
		r.Stats.Invalidates++
		r.degrade("fabric invalidated group: " + reason)
	}
	r.armSafeguard()
	return r, nil
}

// Native reports whether the group is currently using switch multicast.
func (r *ResilientGroup) Native() bool { return !r.fallback }

func (r *ResilientGroup) event(s string) {
	if r.OnEvent != nil {
		r.OnEvent(s)
	}
}

// armSafeguard watches the current source QP for throughput collapse. The
// best-rate norm is carried across re-arms (Safeguard.Prime): a restore
// onto a still-degraded link must be judged against the pre-fault norm,
// not have the degraded rate adopted as the new baseline.
func (r *ResilientGroup) armSafeguard() {
	if r.safeguard != nil {
		if b := r.safeguard.Best(); b > r.bestRate {
			r.bestRate = b
		}
		r.safeguard.Stop()
	}
	r.safeguard = core.NewSafeguard(r.eng, r.Group.Members[r.root].QP,
		r.Opts.Threshold, r.Opts.Window, func(reason string) {
			r.Stats.Trips++
			r.degrade("safeguard tripped: " + reason)
		})
	if r.bestRate > 0 {
		r.safeguard.Prime(r.bestRate)
	}
}

// Bcast reliably delivers size bytes from the member at index rootIdx to
// every other member, surviving fail-stop faults mid-transfer by switching
// schemes. One broadcast runs at a time. done fires when the last member
// holds the complete message.
func (r *ResilientGroup) Bcast(rootIdx, size int, done func()) {
	if r.bc != nil {
		panic("cepheus: resilient broadcast already in progress")
	}
	n := len(r.Group.Members)
	bc := &bcastState{
		root: rootIdx, size: size, done: done,
		delivered: make([]bool, n), inflight: make([]bool, n),
		remaining: n - 1,
	}
	bc.delivered[rootIdx] = true
	r.bc = bc
	if bc.remaining == 0 {
		r.finish()
		return
	}
	if r.fallback {
		r.fallbackSend()
		return
	}
	r.nativeSend()
}

// nativeSend posts the transfer on the multicast QP and hooks every
// receiver for delivery accounting.
func (r *ResilientGroup) nativeSend() {
	bc := r.bc
	if bc.root != r.root {
		r.Group.SwitchSource(r.root, bc.root)
		r.root = bc.root
		r.armSafeguard()
	}
	for i, m := range r.Group.Members {
		if i == bc.root {
			continue
		}
		i := i
		m.QP.OnMessage = func(msg roce.Message) {
			r.Stats.NativeDeliveries++
			r.deliver(i, msg.Size)
		}
	}
	r.Group.Members[bc.root].QP.PostSend(bc.size, nil)
	if r.Opts.Deadline > 0 {
		bc.deadline = r.eng.AfterTimer(r.Opts.Deadline, func() {
			if r.bc == bc && !r.fallback {
				r.Stats.Deadlines++
				r.degrade("native broadcast deadline exceeded")
			}
		})
	}
}

// deliver records one member's complete reception. Wrong-sized deliveries
// are counted and NOT accepted, so a corrupted path can never complete a
// broadcast; duplicates (native racing fallback) are suppressed.
func (r *ResilientGroup) deliver(i, size int) {
	bc := r.bc
	if bc == nil {
		return
	}
	bc.inflight[i] = false
	if size != bc.size {
		r.Stats.CorruptDeliveries++
		return
	}
	if bc.delivered[i] {
		r.Stats.DupDeliveries++
		return
	}
	bc.delivered[i] = true
	bc.remaining--
	if bc.remaining == 0 {
		r.finish()
	}
}

func (r *ResilientGroup) finish() {
	bc := r.bc
	if bc.deadline != nil {
		bc.deadline.Stop()
	}
	r.bc = nil
	bc.done()
}

// degrade is the one-way transition to AMcast fallback: flush all native
// in-flight state, repair routes around dead elements, complete the current
// broadcast over unicast, and start re-probing.
func (r *ResilientGroup) degrade(reason string) {
	if r.fallback {
		return
	}
	r.fallback = true
	r.Stats.SchemeSwitches++
	r.spans = append(r.spans, RecoverySpan{
		Reason: reason, DetectAt: r.eng.Now(), FirstFallbackAt: -1, RestoreAt: -1,
	})
	r.event("degrade: " + reason)
	r.safeguard.Stop()
	// Abort native in-flight state everywhere so no half-delivered multicast
	// message can merge with post-recovery data.
	for _, m := range r.Group.Members {
		m.QP.Flush()
	}
	r.repairRoutes()
	if r.bc != nil {
		if r.bc.deadline != nil {
			r.bc.deadline.Stop()
		}
		r.fallbackSend()
	}
	r.consec = 0
	r.reprobe = r.eng.AfterTimer(r.Opts.ReprobeInterval, r.reprobeTick)
}

func (r *ResilientGroup) repairRoutes() {
	r.c.Net.RebuildRoutes()
	r.Stats.RouteRebuilds++
}

// fallbackSend pushes the current broadcast to every undelivered member
// over root→member unicast, skipping members the repaired fabric cannot
// reach yet (they are retried on every re-probe tick).
func (r *ResilientGroup) fallbackSend() {
	bc := r.bc
	rootHost := r.Group.Members[bc.root].Host
	for i, m := range r.Group.Members {
		if bc.delivered[i] || bc.inflight[i] {
			continue
		}
		if !r.c.Net.PathExists(rootHost, m.Host) {
			r.Stats.DeferredSends++
			continue
		}
		bc.inflight[i] = true
		r.Stats.FallbackDeliveries++ // counted at post; delivery is reliable RC
		if n := len(r.spans); n > 0 && r.spans[n-1].FirstFallbackAt < 0 {
			r.spans[n-1].FirstFallbackAt = r.eng.Now()
		}
		r.fallbackQP(bc.root, i).PostSend(bc.size, nil)
	}
}

// fallbackQP returns (creating on first use) the unicast RC pair from
// member i to member j, with the receive side wired into delivery
// accounting. These QPs are separate from the multicast QPs, so fallback
// traffic never perturbs native PSN state.
func (r *ResilientGroup) fallbackQP(i, j int) *roce.QP {
	key := [2]int{i, j}
	if q, ok := r.sendQP[key]; ok {
		return q
	}
	mi, mj := r.Group.Members[i], r.Group.Members[j]
	sq := mi.RNIC.CreateQP()
	rq := mj.RNIC.CreateQP()
	sq.Connect(mj.Host.IP, rq.QPN)
	rq.Connect(mi.Host.IP, sq.QPN)
	dst := j
	rq.OnMessage = func(m roce.Message) { r.deliver(dst, m.Size) }
	r.sendQP[key] = sq
	return sq
}

// reprobeTick runs while degraded: repair routes (picking up revived
// elements), retry deferred fallback sends, and — when every member is
// reachable — re-attempt MRP registration over the fresh fabric.
func (r *ResilientGroup) reprobeTick() {
	if !r.fallback {
		return
	}
	r.repairRoutes()
	if r.bc != nil {
		r.fallbackSend()
	}
	defer func() {
		if r.fallback {
			r.reprobe = r.eng.AfterTimer(r.Opts.ReprobeInterval, r.reprobeTick)
		}
	}()
	if r.probing {
		return
	}
	// Registration floods MRP toward every member; a member behind a dead
	// element cannot confirm, so don't burn an attempt (or hit unroutable
	// control traffic) until the fabric can reach everyone.
	leaderHost := r.Group.Members[r.Group.Leader].Host
	for _, m := range r.Group.Members {
		if !r.c.Net.PathExists(leaderHost, m.Host) {
			r.Stats.ReprobeSkips++
			r.consec = 0
			return
		}
	}
	r.Stats.Reprobes++
	r.probing = true
	r.Group.RegisterWithPolicy(*r.Opts.Policy, func(err error) {
		r.probing = false
		if err != nil {
			r.Stats.ReprobeFailures++
			r.consec = 0
			r.event("re-probe failed: " + err.Error())
			return
		}
		r.consec++
		r.event(fmt.Sprintf("re-probe registered (%d/%d)", r.consec, r.Opts.RestoreHysteresis))
		if r.consec >= r.Opts.RestoreHysteresis {
			r.restore()
		}
	})
}

// restore returns the group to native switch multicast: PSNs are re-aligned
// group-wide (the multicast QPs have been idle since the degrade flush) and
// the safeguard is re-armed on the current source.
func (r *ResilientGroup) restore() {
	r.fallback = false
	r.consec = 0
	r.Stats.Restores++
	r.Stats.SchemeSwitches++
	if n := len(r.spans); n > 0 {
		r.spans[n-1].RestoreAt = r.eng.Now()
	}
	if r.reprobe != nil {
		r.reprobe.Stop()
	}
	r.Group.SyncAllPSN()
	r.armSafeguard()
	// If a broadcast is still draining over fallback QPs it completes on its
	// own, but the safeguard now watches an idle native QP — re-arm the
	// deadline so a second fault during the drain re-degrades instead of
	// wedging the broadcast.
	if bc := r.bc; bc != nil && r.Opts.Deadline > 0 {
		bc.deadline = r.eng.AfterTimer(r.Opts.Deadline, func() {
			if r.bc == bc && !r.fallback {
				r.Stats.Deadlines++
				r.degrade("fallback drain deadline exceeded")
			}
		})
	}
	r.event("restored native multicast")
}
