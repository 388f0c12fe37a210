package obs

import (
	"fmt"
	"io"
)

// Auditor is an online protocol-invariant checker fed by the recorder as
// each event is recorded (Recorder.Attach). It verifies, streaming, per
// event:
//
//   - go-back-N sender sanity: first transmissions advance PSN contiguously,
//     retransmissions never name a PSN that was not sent or that is already
//     cumulatively acknowledged, and (optionally) the in-flight window stays
//     within the configured bound;
//   - cumulative-ACK consistency: no ACK acknowledges beyond the highest
//     transmitted PSN, no NACK expects beyond it;
//   - per-receiver delivery order: delivery PSNs on a QP are strictly
//     increasing, and no (message, receiver) pair is delivered twice;
//   - per-port conservation: replaying ENQ/DEQ byte accounting reproduces
//     each queue's recorded depth exactly (ENQ = DEQ + DROP, in bytes);
//   - MFT lifecycle: installs never clobber a live table, rebuilds carry a
//     newer epoch, stale-replay discards pair with a genuinely stale epoch,
//     wipes hit a live table, and unknown-group NACKs fire only without one.
//
// KPSNSync events mark sanctioned out-of-band PSN overwrites (recovery's
// group-wide resynchronization); the auditor resets the affected flow state
// instead of flagging the jump. Fault-injected drops put the affected port's
// depth replay into an unknown state (a purge records drops against a bulk
// byte count) until the next ENQ re-anchors it.
//
// Determinism: every checker is keyed per device (flows, ports, tables live
// on one device), and a device's events reach the auditor in its own record
// order — so the auditor's verdict and violation list are a function of the
// simulated history. The auditor assumes tracing was
// enabled before the traffic of interest; attaching mid-run can misread
// pre-existing flow state as a violation.
type Auditor struct {
	cfg AuditConfig

	seen       uint64
	nviol      uint64
	violations []Violation

	// Injected-vs-anomalous drop classification: injected counts drops whose
	// Reason marks deliberate loss (loss models, gray impairments, fail-stop
	// faults); anomalous counts the protocol machinery's own discards (tail
	// drops, no-route, unknown-group). The split lets a chaos soak assert
	// "all loss was ours" without reading the trace back.
	injected  uint64
	anomalous uint64

	sends    map[flowKey]*sendFlow
	rxs      map[flowKey]*rxFlow
	ports    map[portKey]*portState
	mfts     map[mftKey]*mftState
	delivers map[delivKey]struct{}
}

// AuditConfig tunes the auditor.
type AuditConfig struct {
	// WindowPkts, when positive, bounds the sender's in-flight packet count
	// (the transport's go-back-N window). Zero disables the window check.
	WindowPkts int
	// MaxViolations caps retained violations (their count is still exact).
	// Zero means 64.
	MaxViolations int
}

// Violation is one invariant breach, carrying the offending event.
type Violation struct {
	Check  string // checker id: "gbn", "ack", "deliver", "port", "mft"
	Detail string
	Event  Event
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s (t=%d dev=%d kind=%s psn=%d msg=%d a=%d b=%d)",
		v.Check, v.Detail, int64(v.Event.At), v.Event.Dev, v.Event.Kind, v.Event.PSN, v.Event.Msg, v.Event.A, v.Event.B)
}

// ptData mirrors simnet.Data (obs cannot import simnet; the wire enum is
// stable and checked by TestPacketTypeNamesInSync).
const ptData uint8 = 0

type flowKey struct {
	addr uint32 // host address (flows are end-to-end, named by the endpoint)
	qp   uint32
}

type portKey struct {
	dev  uint32
	port int16
}

type mftKey struct {
	dev   uint32
	group uint32
}

type delivKey struct {
	dev uint32
	msg uint64
}

// sendFlow is requester-side state for one (host, QP).
type sendFlow struct {
	originDev uint32
	nxt       uint64 // next first-transmission PSN (== maxSent)
	cumAck    uint64 // next PSN expected to be acknowledged (== sndUna)
}

// rxFlow is responder-side state for one (host, QP).
type rxFlow struct {
	next uint64 // next expected delivery PSN
}

// portState replays one egress queue's byte accounting.
type portState struct {
	depth int64
	known bool
}

// mftState mirrors one switch's table for one group.
type mftState struct {
	present bool
	// rebuilt marks that the last event was an epoch rebuild: the switch
	// deletes and re-installs in one step, so the install that immediately
	// follows (same epoch) is the rebuild's second half, not a double
	// install.
	rebuilt bool
	epoch   uint16
}

// NewAuditor creates an auditor; attach it with rec.Attach(a.Observe).
func NewAuditor(cfg AuditConfig) *Auditor {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 64
	}
	return &Auditor{
		cfg:      cfg,
		sends:    make(map[flowKey]*sendFlow),
		rxs:      make(map[flowKey]*rxFlow),
		ports:    make(map[portKey]*portState),
		mfts:     make(map[mftKey]*mftState),
		delivers: make(map[delivKey]struct{}),
	}
}

func (a *Auditor) violate(e *Event, check, format string, args ...interface{}) {
	a.nviol++
	if len(a.violations) < a.cfg.MaxViolations {
		a.violations = append(a.violations, Violation{
			Check: check, Detail: fmt.Sprintf(format, args...), Event: *e,
		})
	}
}

// Observe feeds one recorded event through every checker. The pointer is not
// retained.
func (a *Auditor) Observe(e *Event) {
	a.seen++
	switch e.Kind {
	case KEnqueue:
		a.port(e, e.B)
		a.senderEnq(e)
	case KDequeue:
		a.port(e, -e.B)
	case KDrop:
		a.drop(e)
	case KPFCPause, KPFCResume:
		a.port(e, 0)
	case KAckRx:
		a.ackRx(e)
	case KNackRx:
		a.nackRx(e)
	case KRetransmit:
		a.retx(e)
	case KDeliver:
		a.deliver(e)
	case KPSNSync:
		a.psnSync(e)
	case KMFTInstall, KMFTRebuild, KMFTWipe, KMFTStale, KMFTNack:
		a.mft(e)
	}
}

// port replays queue-depth accounting: the event's A field records the depth
// the device saw after the operation, which must equal the replayed depth.
func (a *Auditor) port(e *Event, delta int64) {
	if e.Port < 0 {
		return
	}
	k := portKey{e.Dev, e.Port}
	st := a.ports[k]
	if st == nil {
		st = &portState{}
		a.ports[k] = st
	}
	if !st.known {
		st.depth, st.known = e.A, true
		return
	}
	want := st.depth + delta
	if e.A != want {
		a.violate(e, "port", "queue depth %d does not conserve bytes (replayed %d%+d)", e.A, st.depth, delta)
	}
	st.depth = e.A
}

// drop handles KDrop: queue-limit drops must agree with the replayed depth;
// fault drops (purges) desynchronize it until the next enqueue re-anchors;
// gray-failure wire drops happen after the dequeue already left the queue,
// so the replayed depth must be exactly unperturbed — an impairment that
// shifted queue accounting would be a port bug hiding behind injected loss.
func (a *Auditor) drop(e *Event) {
	if e.Reason.InjectedLoss() {
		a.injected++
	} else {
		a.anomalous++
	}
	if e.Port >= 0 {
		k := portKey{e.Dev, e.Port}
		st := a.ports[k]
		switch e.Reason {
		case RFault:
			if st != nil {
				st.known = false
			}
		case RQueueLimit:
			if st != nil && st.known && e.A != st.depth {
				a.violate(e, "port", "tail-drop depth %d disagrees with replayed %d", e.A, st.depth)
			}
		case RImpairLoss, RCorrupt, RStormLoss:
			if st != nil && st.known && e.A != st.depth {
				a.violate(e, "port", "wire-loss drop records depth %d but replay says %d (injected loss must not perturb queue accounting)", e.A, st.depth)
			}
		}
	}
}

// senderEnq audits first transmissions and retransmissions at the origin
// host. The first device ever to enqueue a flow's data is its origin (a
// host's enqueue strictly precedes any switch seeing the packet); data
// passing through switches re-uses the same flow key but a different device,
// and is skipped.
func (a *Auditor) senderEnq(e *Event) {
	if e.PT != ptData || e.Msg == 0 || e.Src != MsgOrigin(e.Msg) {
		return
	}
	k := flowKey{e.Src, e.SrcQP}
	f := a.sends[k]
	if f == nil {
		a.sends[k] = &sendFlow{originDev: e.Dev, nxt: e.PSN + 1, cumAck: e.PSN}
		return
	}
	if f.originDev != e.Dev {
		return
	}
	switch {
	case e.PSN > f.nxt:
		a.violate(e, "gbn", "first transmission skips PSNs (%d after %d)", e.PSN, f.nxt)
		f.nxt = e.PSN + 1
	case e.PSN == f.nxt:
		f.nxt++
	default: // retransmission through the queue
		if e.PSN < f.cumAck {
			a.violate(e, "gbn", "retransmission of already-acknowledged PSN %d (cumAck %d)", e.PSN, f.cumAck)
		}
	}
	if w := uint64(a.cfg.WindowPkts); w > 0 && f.nxt-f.cumAck > w {
		a.violate(e, "gbn", "in-flight window overrun: %d unacked > %d", f.nxt-f.cumAck, w)
		f.cumAck = f.nxt - w // re-anchor so one overrun reports once
	}
}

// ackRx audits cumulative ACK consistency at the sender.
func (a *Auditor) ackRx(e *Event) {
	f := a.sends[flowKey{e.Dst, e.DstQP}]
	if f == nil || f.originDev != e.Dev {
		return
	}
	if e.PSN >= f.nxt {
		a.violate(e, "ack", "cumulative ACK of PSN %d beyond highest sent %d", e.PSN, f.nxt-1)
		return
	}
	if e.PSN+1 > f.cumAck {
		f.cumAck = e.PSN + 1
	}
}

// nackRx audits the NACK's expected PSN and advances the cumulative point
// (a NACK for e implicitly acknowledges everything below e).
func (a *Auditor) nackRx(e *Event) {
	f := a.sends[flowKey{e.Dst, e.DstQP}]
	if f == nil || f.originDev != e.Dev {
		return
	}
	if e.PSN > f.nxt {
		a.violate(e, "ack", "NACK expects PSN %d beyond next transmission %d", e.PSN, f.nxt)
		return
	}
	if e.PSN > f.cumAck {
		f.cumAck = e.PSN
	}
}

// retx audits the requester's retransmission decision itself (the RNIC
// event; the queue-level copy is audited by senderEnq).
func (a *Auditor) retx(e *Event) {
	f := a.sends[flowKey{e.Src, e.SrcQP}]
	if f == nil || f.originDev != e.Dev {
		return
	}
	if e.PSN >= f.nxt {
		a.violate(e, "gbn", "retransmission of never-sent PSN %d (next %d)", e.PSN, f.nxt)
	}
	if e.PSN < f.cumAck {
		a.violate(e, "gbn", "retransmission of already-acknowledged PSN %d (cumAck %d)", e.PSN, f.cumAck)
	}
}

// deliver audits responder-side delivery order and per-(message, receiver)
// uniqueness.
func (a *Auditor) deliver(e *Event) {
	k := flowKey{e.Dst, e.DstQP}
	f := a.rxs[k]
	if f == nil {
		a.rxs[k] = &rxFlow{next: e.PSN + 1}
	} else {
		if e.PSN < f.next {
			a.violate(e, "deliver", "delivery PSN %d not above previous (next expected %d)", e.PSN, f.next)
		}
		f.next = e.PSN + 1
	}
	if e.Msg != 0 {
		dk := delivKey{e.Dev, e.Msg}
		if _, dup := a.delivers[dk]; dup {
			a.violate(e, "deliver", "duplicate delivery of message %s at receiver", MsgString(e.Msg))
		}
		a.delivers[dk] = struct{}{}
	}
}

// psnSync resets flow expectations on a sanctioned out-of-band PSN
// overwrite (A = 0 for the send side, 1 for the receive side).
func (a *Auditor) psnSync(e *Event) {
	k := flowKey{e.Src, e.SrcQP}
	if e.A == 0 {
		f := a.sends[k]
		if f == nil {
			f = &sendFlow{originDev: e.Dev}
			a.sends[k] = f
		}
		f.originDev = e.Dev
		f.nxt, f.cumAck = e.PSN, e.PSN
	} else {
		f := a.rxs[k]
		if f == nil {
			f = &rxFlow{}
			a.rxs[k] = f
		}
		f.next = e.PSN
	}
}

// auditStaleEpoch mirrors core's RFC 1982 serial comparison.
func auditStaleEpoch(a, b uint16) bool { return int16(a-b) < 0 }

// mft audits the MFT lifecycle state machine per (switch, group).
func (a *Auditor) mft(e *Event) {
	k := mftKey{e.Dev, e.Dst}
	st := a.mfts[k]
	epoch := uint16(e.A)
	switch e.Kind {
	case KMFTInstall:
		if st != nil && st.present && !(st.rebuilt && epoch == st.epoch) {
			a.violate(e, "mft", "install (epoch %d) over a live MFT (epoch %d)", epoch, st.epoch)
		}
		if st == nil {
			st = &mftState{}
			a.mfts[k] = st
		}
		st.present, st.epoch, st.rebuilt = true, epoch, false
	case KMFTRebuild:
		if st != nil {
			if !st.present {
				a.violate(e, "mft", "rebuild (epoch %d) without an installed MFT", epoch)
			} else if auditStaleEpoch(epoch, st.epoch) || epoch == st.epoch {
				a.violate(e, "mft", "rebuild epoch %d is not newer than live epoch %d", epoch, st.epoch)
			}
		} else {
			st = &mftState{}
			a.mfts[k] = st
		}
		st.present, st.epoch, st.rebuilt = true, epoch, true
	case KMFTStale:
		if st != nil {
			if !st.present {
				a.violate(e, "mft", "stale-replay discard (epoch %d) without a live MFT", epoch)
			} else if !auditStaleEpoch(epoch, st.epoch) {
				a.violate(e, "mft", "discarded MRP epoch %d is not stale against live epoch %d", epoch, st.epoch)
			}
		}
	case KMFTWipe:
		if st != nil && !st.present {
			a.violate(e, "mft", "wipe of a group with no MFT")
		}
		if st == nil {
			st = &mftState{}
			a.mfts[k] = st
		}
		st.present, st.rebuilt = false, false
	case KMFTNack:
		if st != nil && st.present {
			a.violate(e, "mft", "unknown-group NACK while an MFT (epoch %d) is live", st.epoch)
		}
	}
}

// Seen returns how many events the auditor has observed.
func (a *Auditor) Seen() uint64 { return a.seen }

// InjectedDrops returns how many observed drops carried an injected-loss
// reason (loss models, gray impairments, fail-stop faults).
func (a *Auditor) InjectedDrops() uint64 { return a.injected }

// AnomalousDrops returns how many observed drops the protocol machinery
// itself decided on (tail drop, no-route, unknown-group). Nonzero is not a
// violation — tail drops are legal — but a lossless workload can assert zero.
func (a *Auditor) AnomalousDrops() uint64 { return a.anomalous }

// ViolationCount returns the exact number of violations (including any past
// the retention cap).
func (a *Auditor) ViolationCount() uint64 { return a.nviol }

// Violations returns the retained violations, in stream order.
func (a *Auditor) Violations() []Violation { return a.violations }

// Clean reports whether no invariant was violated.
func (a *Auditor) Clean() bool { return a.nviol == 0 }

// Err returns nil when clean, or an error naming the first violation.
func (a *Auditor) Err() error {
	if a.nviol == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d violation(s); first: %s", a.nviol, a.violations[0].String())
}

// Verdict renders the one-line summary CLIs print.
func (a *Auditor) Verdict() string {
	if a.nviol == 0 {
		return fmt.Sprintf("audit: PASS — %d events, 0 violations", a.seen)
	}
	return fmt.Sprintf("audit: FAIL — %d events, %d violation(s)", a.seen, a.nviol)
}

// Report writes every retained violation, one per line.
func (a *Auditor) Report(w io.Writer) {
	for i := range a.violations {
		fmt.Fprintf(w, "  violation %s\n", a.violations[i].String())
	}
	if extra := a.nviol - uint64(len(a.violations)); extra > 0 {
		fmt.Fprintf(w, "  ... and %d more\n", extra)
	}
}
