package roce

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// VirtualQPN is the reserved destination QPN (0x1) Cepheus assigns to the
// virtual remote connection of every QP in a multicast group (§III-A).
const VirtualQPN uint32 = 0x1

// WQE is a posted send work request.
type WQE struct {
	MsgID    uint64
	Size     int
	IsWrite  bool
	VA       uint64
	RKey     uint32
	IsReduce bool
	Value    float64
	FirstPSN uint64
	LastPSN  uint64

	// OnComplete fires when the whole message is acknowledged.
	OnComplete func()
}

// Message is a fully received, in-order message surfaced to the
// application.
type Message struct {
	MsgID uint64
	Size  int
	Src   simnet.Addr
	SrcQP uint32
	// WriteVA/WriteRKey echo the RETH of a WRITE message's first packet.
	WriteVA   uint64
	WriteRKey uint32

	// Value is the (aggregated) reduction value of a reduce message.
	Value float64
}

// QP is an RC queue pair. One struct holds both requester (send) and
// responder (receive) state, as on a real RNIC.
type QP struct {
	QPN    uint32
	DstIP  simnet.Addr
	DstQPN uint32

	// OnMessage delivers completed in-order messages (after the host-stack
	// delivery cost).
	OnMessage func(m Message)

	// GoodputBytes counts in-order accepted data payload at the responder
	// side; experiments sample it to plot throughput over time (Fig 14).
	GoodputBytes uint64

	// LatHist observes end-to-end delivery latency at the responder: the
	// gap between the requester stamping a data packet at emission and this
	// QP accepting it in order. Always on — Observe is allocation-free and
	// a handful of arithmetic ops per accepted packet.
	LatHist obs.Histogram

	// MsgLatHist observes per-message delivery latency: the gap between the
	// requester emitting the message's first data packet and this responder
	// accepting the last one in order. Unlike LatHist's per-packet transit
	// samples — which collapse to a single value on an uncongested paced
	// fabric — message latency grows with serialization, pacing, and
	// retransmission, so its percentiles spread across receivers and sizes.
	MsgLatHist obs.Histogram

	nic *RNIC
	eng *sim.Engine

	// ---- requester (sender) ----
	wqes    []*WQE
	tail    uint64 // next PSN to assign
	sndUna  uint64 // first unacknowledged PSN
	sndNxt  uint64 // next PSN to transmit (rewinds on go-back-N)
	maxSent uint64 // highest PSN+1 ever transmitted

	nextTx        sim.Time
	sendScheduled bool
	rto           *sim.Timer
	rtoAt         sim.Time // logical retransmission deadline (0: stopped)
	rtoArmedAt    sim.Time // when the physical rto timer fires (0: unarmed)
	emitT         *sim.Timer
	curRTO        sim.Time // backed-off timeout (0: Cfg.RetxTimeout)
	lastRewindE   uint64
	lastRewindAt  sim.Time
	cc            *dcqcn
	rtq           []uint64 // IRN: PSNs awaiting selective retransmission
	backpressured bool     // parked on NIC backpressure (see RNIC.defer1)

	// ---- responder (receiver) ----
	rqPSN       uint64 // expected PSN
	sinceAck    int
	ackDue      bool
	nackPending bool
	curBytes    int
	curVA       uint64
	curRKey     uint32
	curValue    float64
	msgStamp    sim.Time // emission stamp of the current message's first packet
	lastCNP     sim.Time

	// IRN responder state: buffered out-of-order packets and NACK dedup.
	ooo           map[uint64]oooPkt
	lastNackedPSN uint64
	lastNackedAt  sim.Time

	// Group-stats cell caches (nil while attribution is off or the flow is
	// unicast): gsRx is the receive-side cell keyed by the arriving
	// packet's source, gsTx the send-side cell keyed by DstIP. Caching the
	// cell pointer keeps per-packet attribution to a few field adds.
	gsRx    *obs.GroupCell
	gsRxSrc simnet.Addr
	gsTx    *obs.GroupCell
}

// oooPkt is an out-of-order packet buffered by an IRN responder until the
// sequence gap closes.
type oooPkt struct {
	payload int
	last    bool
	msgID   uint64
	va      uint64
	rkey    uint32
	value   float64
	stamp   sim.Time
}

func newQP(r *RNIC, qpn uint32) *QP {
	qp := &QP{
		QPN: qpn, nic: r, eng: r.eng,
		lastCNP: -1 << 60, lastRewindAt: -1 << 60,
		lastNackedPSN: ^uint64(0), lastNackedAt: -1 << 60,
	}
	// One re-armable RTO and one emission timer per QP for the connection's
	// lifetime: re-arming on every ACK or paced send moves the single queue
	// entry instead of churning the scheduler.
	qp.rto = r.eng.NewTimer(qp.onRTO)
	qp.emitT = r.eng.NewTimer(qp.emit)
	if r.Cfg.IRN {
		qp.ooo = make(map[uint64]oooPkt)
	}
	if r.Cfg.DCQCN {
		qp.cc = newDCQCN(qp, r.Cfg.DCQCNParams)
	}
	return qp
}

// Connect activates the QP against a remote <dstIP, dstQPN>. For Cepheus
// multicast QPs the remote is the virtual connection <McstID, 0x1>.
func (qp *QP) Connect(dstIP simnet.Addr, dstQPN uint32) {
	qp.DstIP = dstIP
	qp.DstQPN = dstQPN
	qp.gsTx = nil // re-resolve the send-side group cell for the new remote
}

// rxGroupCell resolves (and caches) the receive-side group-stats cell for
// ref's source; nil for unicast flows. Callers guard with qp.nic.gs != nil.
func (qp *QP) rxGroupCell(ref *simnet.Packet) *obs.GroupCell {
	if qp.gsRxSrc != ref.Src {
		qp.gsRxSrc = ref.Src
		if ref.Src.IsMulticast() {
			qp.gsRx = qp.nic.gs.Cell(uint32(ref.Src))
		} else {
			qp.gsRx = nil
		}
	}
	return qp.gsRx
}

// txGroupCell resolves (and caches) the send-side group-stats cell for the
// QP's remote; nil for unicast connections. Callers guard with
// qp.nic.gs != nil.
func (qp *QP) txGroupCell() *obs.GroupCell {
	if qp.gsTx == nil {
		if !qp.DstIP.IsMulticast() {
			return nil
		}
		qp.gsTx = qp.nic.gs.Cell(uint32(qp.DstIP))
	}
	return qp.gsTx
}

// SqPSN returns the requester's next send PSN (the paper's sqPSN).
func (qp *QP) SqPSN() uint64 { return qp.tail }

// RqPSN returns the responder's expected PSN (the paper's rqPSN).
func (qp *QP) RqPSN() uint64 { return qp.rqPSN }

// SetSqPSN overwrites requester PSN state. It is only legal while the send
// queue is idle; Cepheus uses it for the PSN Synchronization step of
// multicast source switching (§III-E).
func (qp *QP) SetSqPSN(psn uint64) {
	if len(qp.wqes) > 0 {
		panic("roce: SetSqPSN with in-flight messages")
	}
	qp.tail, qp.sndUna, qp.sndNxt, qp.maxSent = psn, psn, psn, psn
	qp.recPSNSync(psn, 0)
}

// SetRqPSN overwrites the responder's expected PSN (see SetSqPSN).
func (qp *QP) SetRqPSN(psn uint64) {
	qp.rqPSN = psn
	qp.recPSNSync(psn, 1)
}

// recPSNSync traces an out-of-band PSN overwrite (side 0 = SQ, 1 = RQ) so
// streaming consumers can reset per-flow expectations instead of flagging
// the sanctioned jump as a protocol violation.
func (qp *QP) recPSNSync(psn uint64, side int64) {
	if qp.nic.tr.On() {
		qp.nic.tr.Record(qp.eng.Now(), obs.KPSNSync, obs.RNone, -1, uint8(simnet.Data),
			uint32(qp.nic.Host.IP), 0, qp.QPN, 0, psn, 0, side, 0)
	}
}

// Flush aborts everything in flight on the QP, in both roles: posted WQEs
// are dropped without completions, pending retransmissions and the RTO are
// cancelled, and responder-side partial message assembly and out-of-order
// buffers are discarded. It models the error/flush transition a verbs stack
// performs when a connection is torn down mid-transfer — the safeguard uses
// it before falling back to AMcast so no half-delivered multicast message
// can ever surface, and Group.SyncAllPSN can later realign the survivors.
func (qp *QP) Flush() {
	// Requester: forget the unacknowledged tail entirely. sndUna jumps to
	// tail so nothing is considered outstanding; maxSent follows so future
	// packets are not misclassified as retransmissions.
	qp.wqes = nil
	qp.sndUna, qp.sndNxt, qp.maxSent = qp.tail, qp.tail, qp.tail
	qp.rtq = nil
	qp.stopRTO()
	qp.curRTO = 0
	// Responder: discard partial assembly and buffered out-of-order data so
	// a pre-fault message prefix can never merge with post-recovery bytes.
	qp.curBytes, qp.curVA, qp.curRKey, qp.curValue = 0, 0, 0, 0
	qp.msgStamp = 0
	qp.sinceAck, qp.ackDue, qp.nackPending = 0, false, false
	if qp.ooo != nil {
		qp.ooo = make(map[uint64]oooPkt)
	}
}

// AckedPSN returns the first unacknowledged PSN; everything below it has
// been acknowledged by the remote (or, for Cepheus, by every receiver).
func (qp *QP) AckedPSN() uint64 { return qp.sndUna }

// Outstanding returns how many packets are posted but not yet acknowledged.
func (qp *QP) Outstanding() uint64 { return qp.tail - qp.sndUna }

// Rate returns the requester's current sending rate in bps.
func (qp *QP) Rate() float64 {
	if qp.cc != nil {
		qp.cc.catchUp()
		return qp.cc.rc
	}
	return qp.nic.Host.NIC.RateBps
}

// PostSend posts a SEND of size bytes. onComplete (may be nil) fires when
// the message is fully acknowledged.
func (qp *QP) PostSend(size int, onComplete func()) {
	qp.post(size, false, 0, 0, onComplete)
}

// PostWrite posts an RDMA WRITE of size bytes targeting the remote MR
// <va, rkey>. The responder RNIC validates the MR on the first packet.
func (qp *QP) PostWrite(size int, va uint64, rkey uint32, onComplete func()) {
	qp.post(size, true, va, rkey, onComplete)
}

// PostReduce posts a reduction contribution of size bytes carrying value.
// On a Cepheus group QP the fabric combines contributions per PSN and the
// root receives a single message whose Value is the group aggregate.
func (qp *QP) PostReduce(size int, value float64, onComplete func()) {
	r := qp.nic
	r.stackDefer(r.Cfg.PostOverhead, func() {
		w := qp.enqueueWQE(size, false, 0, 0, onComplete)
		w.IsReduce = true
		w.Value = value
		qp.trySend()
	})
}

func (qp *QP) post(size int, isWrite bool, va uint64, rkey uint32, onComplete func()) {
	if size <= 0 {
		panic("roce: post of non-positive size")
	}
	r := qp.nic
	r.stackDefer(r.Cfg.PostOverhead, func() {
		qp.enqueueWQE(size, isWrite, va, rkey, onComplete)
		qp.trySend()
	})
}

func (qp *QP) enqueueWQE(size int, isWrite bool, va uint64, rkey uint32, onComplete func()) *WQE {
	r := qp.nic
	npkt := (size + r.Cfg.MTU - 1) / r.Cfg.MTU
	w := &WQE{
		MsgID:      r.nextMsg,
		Size:       size,
		IsWrite:    isWrite,
		VA:         va,
		RKey:       rkey,
		FirstPSN:   qp.tail,
		LastPSN:    qp.tail + uint64(npkt) - 1,
		OnComplete: onComplete,
	}
	r.nextMsg++
	qp.tail += uint64(npkt)
	qp.wqes = append(qp.wqes, w)
	return w
}

// ---- requester side ----

// nextToSend picks the next PSN to transmit: selective retransmissions
// first (IRN), then new data within the window.
func (qp *QP) nextToSend() (psn uint64, retx, ok bool) {
	for len(qp.rtq) > 0 {
		if qp.rtq[0] < qp.sndUna {
			qp.rtq = qp.rtq[1:] // acknowledged while queued
			continue
		}
		return qp.rtq[0], true, true
	}
	if qp.sndNxt < qp.tail && qp.sndNxt-qp.sndUna < uint64(qp.nic.Cfg.WindowPkts) {
		return qp.sndNxt, false, true
	}
	return 0, false, false
}

func (qp *QP) trySend() {
	if qp.sendScheduled {
		return
	}
	if _, _, ok := qp.nextToSend(); !ok {
		return // a post, ACK or NACK will kick us
	}
	at := qp.eng.Now()
	if qp.nextTx > at {
		at = qp.nextTx
	}
	qp.sendScheduled = true
	// Re-arming the one emission timer relinks its queue entry in place (and
	// a pacer firing that immediately re-arms never leaves the queue), where
	// scheduling a fresh event per emission would insert and remove one each
	// time.
	qp.emitT.Reset(at - qp.eng.Now())
}

func (qp *QP) emit() {
	qp.sendScheduled = false
	if qp.cc != nil {
		// Apply virtual rate-timer ticks due before this emission first, as
		// the scheduler would have: within the event, time is frozen, so the
		// catch-ups inside Rate() and onBytesSent() below are then no-ops.
		qp.cc.catchUp()
	}
	psn, retx, ok := qp.nextToSend()
	if !ok {
		return
	}
	if qp.nic.nicBackpressured() {
		// The NIC egress is full or PFC-paused: hold the packet and resume
		// when the queue drains rather than overrunning it.
		qp.nic.defer1(qp)
		return
	}
	if retx {
		qp.rtq = qp.rtq[1:]
	}
	w := qp.wqeFor(psn)
	if w == nil {
		panic(fmt.Sprintf("roce: %s qp%d has no WQE for psn %d", qp.nic.Host.Name, qp.QPN, psn))
	}
	idx := int(psn - w.FirstPSN)
	payload := w.Size - idx*qp.nic.Cfg.MTU
	if payload > qp.nic.Cfg.MTU {
		payload = qp.nic.Cfg.MTU
	}
	p := simnet.NewPacket()
	p.Type = simnet.Data
	p.Src = qp.nic.Host.IP
	p.Dst = qp.DstIP
	p.SrcQP = qp.QPN
	p.DstQP = qp.DstQPN
	p.PSN = psn
	p.Payload = payload
	p.MsgID = w.MsgID
	p.Last = psn == w.LastPSN
	p.Retrans = psn < qp.maxSent
	if w.IsWrite && idx == 0 {
		p.WriteVA = w.VA
		p.WriteRKey = w.RKey
	}
	if w.IsReduce {
		p.Reduce = true
		p.Value = w.Value
	}
	if p.Retrans {
		qp.nic.Stats.Retransmits++
		if qp.nic.tr.On() {
			qp.nic.rec(obs.KRetransmit, p, 0, int64(payload))
		}
		if qp.nic.gs != nil {
			if c := qp.txGroupCell(); c != nil {
				c.Retransmit(qp.eng.Now(), int64(payload))
			}
		}
	}
	p.Stamp = qp.eng.Now()
	qp.nic.Stats.DataSent++
	qp.nic.Host.Send(p)

	// Pace the next emission at the current rate.
	bits := float64((payload + simnet.WireOverhead) * 8)
	gap := sim.Time(bits / qp.Rate() * 1e9)
	now := qp.eng.Now()
	if qp.nextTx < now {
		qp.nextTx = now
	}
	qp.nextTx += gap
	if qp.cc != nil {
		qp.cc.onBytesSent(payload + simnet.WireOverhead)
	}
	if !retx {
		qp.sndNxt = psn + 1
		if qp.sndNxt > qp.maxSent {
			qp.maxSent = qp.sndNxt
		}
	}
	qp.armRTO()
	qp.trySend()
}

func (qp *QP) wqeFor(psn uint64) *WQE {
	for _, w := range qp.wqes {
		if psn >= w.FirstPSN && psn <= w.LastPSN {
			return w
		}
	}
	return nil
}

// armRTO moves the logical retransmission deadline to now+timeout. The
// physical timer is lazy: it only re-keys its queue entry when it would
// otherwise fire too late, so the per-ACK and per-send re-arms on the hot
// path are two field writes. A stale (early) firing defers itself in onRTO —
// one queue op per timeout period instead of one per packet.
func (qp *QP) armRTO() {
	to := qp.curRTO
	if to <= 0 {
		to = qp.nic.Cfg.RetxTimeout
	}
	now := qp.eng.Now()
	qp.rtoAt = now + to
	if qp.rtoArmedAt == 0 || qp.rtoArmedAt > qp.rtoAt {
		qp.rto.Reset(qp.rtoAt - now)
		qp.rtoArmedAt = qp.rtoAt
	}
}

// stopRTO cancels the logical deadline. An armed physical timer is left to
// fire once and find nothing due, which is cheaper than removing it from
// the queue on every full-acknowledgment edge.
func (qp *QP) stopRTO() { qp.rtoAt = 0 }

// backoffRTO grows the effective timeout after an expiry, when enabled.
func (qp *QP) backoffRTO() {
	cfg := &qp.nic.Cfg
	if cfg.RetxBackoff <= 1 {
		return
	}
	cur := qp.curRTO
	if cur <= 0 {
		cur = cfg.RetxTimeout
	}
	next := sim.Time(float64(cur) * cfg.RetxBackoff)
	if cfg.RetxBackoffMax > 0 && next > cfg.RetxBackoffMax {
		next = cfg.RetxBackoffMax
	}
	qp.curRTO = next
}

func (qp *QP) onRTO() {
	qp.rtoArmedAt = 0
	if qp.rtoAt == 0 || qp.sndUna >= qp.tail {
		return // logically stopped, or everything acknowledged
	}
	if now := qp.eng.Now(); qp.rtoAt > now {
		// Stale wakeup: the deadline moved while the physical timer stayed
		// put (armRTO's lazy re-arm). Chase the live deadline.
		qp.rto.Reset(qp.rtoAt - now)
		qp.rtoArmedAt = qp.rtoAt
		return
	}
	qp.rtoAt = 0
	if qp.backpressured || qp.nic.nicBackpressured() {
		// Feedback is stalled because *we* cannot transmit (local PFC
		// pause); retransmitting would only deepen the backlog.
		qp.armRTO()
		return
	}
	qp.nic.Stats.Timeouts++
	qp.backoffRTO()
	if qp.nic.Cfg.IRN {
		qp.queueRetx(qp.sndUna)
	} else {
		qp.sndNxt = qp.sndUna
	}
	qp.armRTO()
	qp.trySend()
}

// queueRetx schedules one PSN for selective retransmission (IRN).
func (qp *QP) queueRetx(psn uint64) {
	for _, v := range qp.rtq {
		if v == psn {
			return
		}
	}
	qp.rtq = append(qp.rtq, psn)
	// Keep ascending so retransmissions repair the oldest gap first.
	for i := len(qp.rtq) - 1; i > 0 && qp.rtq[i] < qp.rtq[i-1]; i-- {
		qp.rtq[i], qp.rtq[i-1] = qp.rtq[i-1], qp.rtq[i]
	}
}

func (qp *QP) advanceCum(acked uint64) {
	if acked < qp.sndUna {
		return
	}
	if acked > qp.sndUna {
		qp.curRTO = 0 // forward progress: shed any retransmission backoff
	}
	qp.sndUna = acked
	// A NACK rewind can leave sndNxt below a cumulative ACK that lands
	// before the rewound range is re-emitted (the NACKed packets were
	// delayed, not lost). Restore sndNxt >= sndUna or the unsigned
	// in-flight count underflows: the window then reads as permanently
	// full and the QP goes dormant with its RTO stopped.
	if qp.sndNxt < qp.sndUna {
		qp.sndNxt = qp.sndUna
	}
	for len(qp.wqes) > 0 && qp.wqes[0].LastPSN < qp.sndUna {
		w := qp.wqes[0]
		qp.wqes = qp.wqes[1:]
		if w.OnComplete != nil {
			w.OnComplete()
		}
	}
	if qp.sndUna >= qp.tail {
		qp.stopRTO()
	} else {
		qp.armRTO()
	}
	qp.trySend()
}

// ---- packet dispatch ----

func (qp *QP) handle(p *simnet.Packet) {
	switch p.Type {
	case simnet.Data:
		qp.handleData(p)
	case simnet.Ack:
		qp.nic.Stats.AcksRecv++
		if qp.nic.tr.On() {
			qp.nic.rec(obs.KAckRx, p, 0, 0)
		}
		qp.advanceCum(p.PSN + 1)
	case simnet.Nack:
		qp.nic.Stats.NacksRecv++
		if qp.nic.tr.On() {
			qp.nic.rec(obs.KNackRx, p, 0, 0)
		}
		qp.handleNack(p)
	case simnet.CNP:
		qp.nic.Stats.CNPsRecv++
		if qp.nic.tr.On() {
			qp.nic.rec(obs.KCNPRx, p, 0, 0)
		}
		if qp.cc != nil {
			qp.cc.onCNP()
		}
	}
}

func (qp *QP) handleNack(p *simnet.Packet) {
	e := p.PSN // expected PSN: everything below e is acknowledged
	qp.advanceCum(e)
	if e >= qp.maxSent {
		return // nothing sent at or beyond e; nothing to retransmit
	}
	if e < qp.sndUna {
		// Stale feedback for a range already acknowledged — or flushed by a
		// fault-recovery abort; there is no WQE left to retransmit from.
		return
	}
	// Suppress duplicate repairs of the same point within the holdoff (the
	// retransmission is already in flight).
	now := qp.eng.Now()
	if e == qp.lastRewindE && now-qp.lastRewindAt < qp.nic.Cfg.RetxTimeout/8 {
		return
	}
	qp.lastRewindE, qp.lastRewindAt = e, now
	if qp.nic.Cfg.IRN {
		// Selective repeat: resend exactly the named packet; everything
		// after it stays in flight.
		qp.nic.Stats.SelectiveRetx++
		qp.queueRetx(e)
	} else {
		// Go-back-N: rewind and resend the whole window tail.
		qp.nic.Stats.GoBackN++
		if qp.sndNxt > e {
			qp.sndNxt = e
		}
	}
	qp.trySend()
}

// ---- responder side ----

func (qp *QP) handleData(p *simnet.Packet) {
	qp.nic.Stats.DataRecv++
	cfg := qp.nic.Cfg
	now := qp.eng.Now()
	if p.ECN && now-qp.lastCNP >= cfg.CNPInterval {
		qp.lastCNP = now
		qp.nic.Stats.CNPsSent++
		cnp := simnet.NewPacket()
		cnp.Type, cnp.Src, cnp.Dst = simnet.CNP, qp.nic.Host.IP, p.Src
		cnp.SrcQP, cnp.DstQP = qp.QPN, p.SrcQP
		if qp.nic.tr.On() {
			qp.nic.rec(obs.KCNPTx, cnp, 0, 0)
		}
		qp.nic.Host.Send(cnp)
	}
	switch {
	case p.PSN == qp.rqPSN:
		qp.ingest(p.Payload, p.Last, p.MsgID, p.WriteVA, p.WriteRKey, p.Value, p.Stamp, p)
		// IRN: the gap closed; drain whatever was buffered behind it.
		for qp.ooo != nil {
			o, ok := qp.ooo[qp.rqPSN]
			if !ok {
				break
			}
			delete(qp.ooo, qp.rqPSN)
			qp.ingest(o.payload, o.last, o.msgID, o.va, o.rkey, o.value, o.stamp, p)
		}
		if qp.ackDue {
			qp.ackDue = false
			qp.sinceAck = 0
			qp.sendAck(p)
		}
	case p.PSN > qp.rqPSN:
		if qp.nic.Cfg.IRN {
			// Selective repeat: buffer out-of-order data and name the gap.
			if _, dup := qp.ooo[p.PSN]; dup {
				qp.nic.Stats.DupData++
			} else {
				qp.ooo[p.PSN] = oooPkt{
					payload: p.Payload, last: p.Last, msgID: p.MsgID,
					va: p.WriteVA, rkey: p.WriteRKey, value: p.Value,
					stamp: p.Stamp,
				}
			}
			if qp.rqPSN != qp.lastNackedPSN || now-qp.lastNackedAt >= cfg.RetxTimeout/8 {
				qp.lastNackedPSN, qp.lastNackedAt = qp.rqPSN, now
				qp.sendNack(p)
			}
			return
		}
		// Go-back-N: NACK once and drop until the expected PSN shows up.
		if !qp.nackPending {
			qp.nackPending = true
			qp.sendNack(p)
		}
	default:
		// Duplicate of an already-received packet: re-ACK so the requester
		// (or the aggregation tree) can advance.
		qp.nic.Stats.DupData++
		qp.sendAck(p)
	}
}

// ingest accepts one in-order packet's worth of state: cumulative PSN,
// message assembly, delivery, and ACK coalescing accounting. ref carries
// the flow addressing used for feedback and delivery metadata; stamp is the
// requester-side emission time of this packet (not of ref, which for a
// buffered out-of-order packet is the later gap-filler).
func (qp *QP) ingest(payload int, last bool, msgID uint64, va uint64, rkey uint32, value float64, stamp sim.Time, ref *simnet.Packet) {
	if qp.curBytes == 0 && stamp > 0 {
		qp.msgStamp = stamp
	}
	if stamp > 0 {
		lat := int64(qp.eng.Now() - stamp)
		qp.LatHist.Observe(lat)
		// Per-packet latency goes into the always-on histogram; the trace
		// gets one DELIVER per completed message (the event an application
		// observes). Tracing every accepted packet would add ~20% event
		// volume while repeating what LatHist already aggregates.
		if last && qp.nic.tr.On() {
			qp.nic.tr.Record(qp.eng.Now(), obs.KDeliver, obs.RNone, -1, uint8(simnet.Data),
				uint32(ref.Src), uint32(qp.nic.Host.IP), ref.SrcQP, qp.QPN, qp.rqPSN, msgID,
				lat, int64(qp.curBytes+payload))
		}
	}
	qp.rqPSN++
	qp.nackPending = false
	qp.GoodputBytes += uint64(payload)
	if qp.nic.gs != nil {
		if c := qp.rxGroupCell(ref); c != nil {
			c.Packet(qp.eng.Now(), int64(payload))
		}
	}
	if va != 0 || rkey != 0 {
		qp.curVA, qp.curRKey = va, rkey
	}
	if value != 0 {
		qp.curValue = value
	}
	qp.curBytes += payload
	qp.sinceAck++
	if last {
		if qp.msgStamp > 0 {
			mlat := int64(qp.eng.Now() - qp.msgStamp)
			qp.MsgLatHist.Observe(mlat)
			if qp.gsRx != nil {
				qp.gsRx.Message(qp.eng.Now(), mlat)
			}
		}
		m := Message{
			MsgID: msgID, Size: qp.curBytes, Src: ref.Src, SrcQP: ref.SrcQP,
			WriteVA: qp.curVA, WriteRKey: qp.curRKey, Value: qp.curValue,
		}
		qp.curBytes, qp.curVA, qp.curRKey, qp.curValue = 0, 0, 0, 0
		qp.msgStamp = 0
		if qp.OnMessage != nil {
			qp.nic.stackDefer(qp.nic.Cfg.DeliverOverhead, func() { qp.OnMessage(m) })
		}
	}
	if last || qp.sinceAck >= qp.nic.Cfg.AckEvery {
		qp.ackDue = true
	}
}

func (qp *QP) sendNack(ref *simnet.Packet) {
	qp.nic.Stats.NacksSent++
	n := simnet.NewPacket()
	n.Type, n.Src, n.Dst = simnet.Nack, qp.nic.Host.IP, ref.Src
	n.SrcQP, n.DstQP, n.PSN = qp.QPN, ref.SrcQP, qp.rqPSN
	if qp.nic.tr.On() {
		qp.nic.rec(obs.KNackTx, n, 0, 0)
	}
	qp.nic.Host.Send(n)
}

func (qp *QP) sendAck(p *simnet.Packet) {
	qp.nic.Stats.AcksSent++
	a := simnet.NewPacket()
	a.Type, a.Src, a.Dst = simnet.Ack, qp.nic.Host.IP, p.Src
	a.SrcQP, a.DstQP, a.PSN = qp.QPN, p.SrcQP, qp.rqPSN-1
	if qp.nic.tr.On() {
		qp.nic.rec(obs.KAckTx, a, 0, 0)
	}
	qp.nic.Host.Send(a)
}
