// Package obs is the unified observability layer: a flight recorder of typed
// trace events (allocation-free, exported in a canonical order), the
// fabric's queue-depth histogram, and log-bucketed histograms for latency
// and queue-depth distributions.
//
// The package sits below simnet/roce/core in the dependency order (it imports
// only sim), so every layer of the stack can record into it. Everything is
// built to cost nothing when disabled: recording is guarded by a nil Tracer
// check, the queue-depth hook is a nil-safe observe, and nothing on any path allocates.
// See DESIGN.md §10.
package obs

import (
	"fmt"

	"repro/internal/sim"
)

// Kind enumerates the trace event taxonomy. The set mirrors the behaviours
// the paper's evaluation reasons about: queue dynamics (enqueue/dequeue, ECN,
// drops, PFC), the feedback stream (ACK/NACK/CNP in both directions,
// retransmissions, deliveries), and the accelerator's MFT lifecycle.
type Kind uint8

const (
	// KEnqueue: a frame entered an egress queue. A = queue depth in bytes
	// after the enqueue, B = frame wire size.
	KEnqueue Kind = iota
	// KDequeue: a frame left an egress queue and began serializing.
	// A = queue depth after the dequeue, B = frame wire size.
	KDequeue
	// KECNMark: an egress queue CE-marked a data frame. A = queue depth,
	// B = frame wire size.
	KECNMark
	// KDrop: a frame died. Reason says why; A = queue depth at the drop
	// (where meaningful), B = frame wire size.
	KDrop
	// KPFCPause: PFC paused an egress. A = queue depth at the pause.
	KPFCPause
	// KPFCResume: PFC resumed an egress. A = queue depth at the resume.
	KPFCResume
	// KAckTx / KAckRx: a transport ACK left / reached an endpoint.
	KAckTx
	KAckRx
	// KNackTx / KNackRx: a transport NACK left / reached an endpoint.
	// PSN is the expected PSN the NACK names.
	KNackTx
	KNackRx
	// KCNPTx / KCNPRx: a DCQCN congestion notification left / reached an
	// endpoint.
	KCNPTx
	KCNPRx
	// KRetransmit: the requester re-emitted a data packet. Msg identifies
	// the message, B = payload bytes.
	KRetransmit
	// KDeliver: the responder completed an in-order message (the packet
	// carrying the last flag was accepted). A = the final packet's delivery
	// latency in ns (from requester emission), B = message payload bytes,
	// Msg = the message id. Per-packet latencies are aggregated in the
	// always-on QP histograms; the trace records the application-visible
	// delivery.
	KDeliver
	// KMFTInstall: an accelerator installed a new MFT. Dst = group,
	// A = epoch.
	KMFTInstall
	// KMFTRebuild: a newer-epoch registration replaced an MFT wholesale.
	// Dst = group, A = new epoch.
	KMFTRebuild
	// KMFTWipe: a switch crash wiped an MFT (one event per group).
	// Dst = group.
	KMFTWipe
	// KMFTStale: an older-epoch MRP replay was discarded. Dst = group,
	// A = stale epoch.
	KMFTStale
	// KMFTNack: a switch rejected unknown-group data toward its source.
	// Dst = group.
	KMFTNack
	// KPSNSync: recovery overwrote a QP's PSN state out of band (group-wide
	// resynchronization, §III-E, or a source switch). SrcQP = the QP,
	// PSN = the new value, A = 0 for the send side (SQ), 1 for the receive
	// side (RQ). The auditor resets its per-flow expectations on this event:
	// PSN jumps across recovery are sanctioned, silent ones are not.
	KPSNSync

	numKinds
)

var kindNames = [...]string{
	"ENQ", "DEQ", "ECN", "DROP", "PAUSE", "RESUME",
	"ACK-TX", "ACK-RX", "NACK-TX", "NACK-RX", "CNP-TX", "CNP-RX",
	"RETX", "DELIVER",
	"MFT-INSTALL", "MFT-REBUILD", "MFT-WIPE", "MFT-STALE", "MFT-NACK",
	"PSN-SYNC",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindByName resolves a kind name (as printed by String, case-sensitive).
func KindByName(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// KindNames lists every kind name, for CLI help text.
func KindNames() []string { return append([]string(nil), kindNames[:]...) }

// Reason qualifies a KDrop event.
type Reason uint8

const (
	RNone Reason = iota
	// RQueueLimit: drop-tail at a bounded egress queue.
	RQueueLimit
	// RLoss: injected random data loss (Fig 13 experiments).
	RLoss
	// RCtrlLoss: injected random control loss.
	RCtrlLoss
	// RCrash: the frame arrived at or was emitted by a crashed switch.
	RCrash
	// RNoRoute: no FIB entry for the destination.
	RNoRoute
	// RFault: a dead link killed the frame (queued, enqueued-while-down, or
	// in flight when the link failed).
	RFault
	// RUnknownGroup: multicast data for a group the switch has no MFT for.
	RUnknownGroup
	// RImpairLoss: a gray-failure impairment lost the frame on the wire
	// (independent or Gilbert-Elliott burst loss at an impaired port).
	RImpairLoss
	// RCorrupt: a gray-failure impairment corrupted the frame; the receiver's
	// CRC check would discard it, modeled as a wire loss at the sender port.
	RCorrupt
	// RStormLoss: a control-plane-targeted loss storm dropped a control frame
	// (MRP/ACK/NACK/CNP) at an impaired port.
	RStormLoss

	numReasons
)

var reasonNames = [...]string{
	"", "qlimit", "loss", "ctrl-loss", "crash", "no-route", "fault", "unknown-group",
	"impair-loss", "corrupt", "ctrl-storm",
}

// InjectedLoss reports whether r marks a deliberately injected discard (loss
// models, gray impairments, fail-stop faults) as opposed to a drop the
// protocol machinery itself decided on (tail drop, missing route, unknown
// group). The auditor uses the distinction to keep injected loss from ever
// reading as a protocol violation.
func (r Reason) InjectedLoss() bool {
	switch r {
	case RLoss, RCtrlLoss, RCrash, RFault, RImpairLoss, RCorrupt, RStormLoss:
		return true
	}
	return false
}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("Reason(%d)", uint8(r))
}

// ReasonByName resolves a reason name (as printed by String).
func ReasonByName(s string) (Reason, bool) {
	for i, n := range reasonNames {
		if n == s && i > 0 {
			return Reason(i), true
		}
	}
	return 0, false
}

// pktTypeNames mirrors simnet.PacketType's String values (obs cannot import
// simnet; the wire enum is stable and checked by TestPacketTypeNamesInSync).
var pktTypeNames = [...]string{
	"DATA", "ACK", "NACK", "CNP", "MRP", "MRP-CONFIRM", "MRP-REJECT",
	"PAUSE", "RESUME", "RAW",
}

// PktTypeName renders a simnet.PacketType value for export.
func PktTypeName(pt uint8) string {
	if int(pt) < len(pktTypeNames) {
		return pktTypeNames[pt]
	}
	return fmt.Sprintf("PT(%d)", pt)
}

// PktTypeByName resolves a packet-type name (as printed by PktTypeName).
func PktTypeByName(s string) (uint8, bool) {
	for i, n := range pktTypeNames {
		if n == s {
			return uint8(i), true
		}
	}
	return 0, false
}

// AddrString renders a 32-bit address in dotted-quad form, identically to
// simnet.Addr.String.
func AddrString(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ParseAddr inverts AddrString. It accepts exactly the dotted-quad form the
// exports emit; anything else returns false.
func ParseAddr(s string) (uint32, bool) {
	var q [4]int
	start, qi := 0, 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if qi == 4 || i == start || (i-start > 1 && s[start] == '0') {
				return 0, false
			}
			v := 0
			for _, c := range s[start:i] {
				if c < '0' || c > '9' {
					return 0, false
				}
				v = v*10 + int(c-'0')
				if v > 255 {
					return 0, false
				}
			}
			q[qi] = v
			qi++
			start = i + 1
		}
	}
	if qi != 4 {
		return 0, false
	}
	return uint32(q[0])<<24 | uint32(q[1])<<16 | uint32(q[2])<<8 | uint32(q[3]), true
}

// Event is one flight-recorder record. It is a fixed-size, pointer-free
// value: rings of events move nothing the GC cares about, and recording one
// is a field-wise store.
//
// A and B carry kind-specific values (documented per Kind above).
// Msg identifies the message a data frame belongs to. Message ids are
// globally unique — the originating host's address in the high 32 bits, a
// per-host counter in the low 32 — so a span reconstructor can follow one
// message across devices without guessing, and MsgOrigin recovers the
// sender. SrcQP/DstQP carry the frame's queue-pair addressing; control
// frames built fresh (ACK/NACK/CNP) carry Msg = 0.
type Event struct {
	At     sim.Time
	PSN    uint64
	Msg    uint64
	A      int64
	B      int64
	Dev    uint32
	Src    uint32
	Dst    uint32
	SrcQP  uint32
	DstQP  uint32
	Port   int16
	Kind   Kind
	Reason Reason
	PT     uint8 // simnet.PacketType of the frame involved, if any
}

// MsgOrigin extracts the originating host address from a message id.
func MsgOrigin(msg uint64) uint32 { return uint32(msg >> 32) }
