package roce

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Stats aggregates transport counters across an RNIC's QPs.
type Stats struct {
	DataSent      uint64
	DataRecv      uint64
	AcksSent      uint64
	AcksRecv      uint64
	NacksSent     uint64
	NacksRecv     uint64
	CNPsSent      uint64
	CNPsRecv      uint64
	GoBackN       uint64 // NACK-triggered rewinds (go-back-N mode)
	SelectiveRetx uint64 // NACK-triggered single-packet repairs (IRN mode)
	Timeouts      uint64 // RTO-triggered rewinds
	Retransmits   uint64 // retransmitted data packets
	DupData       uint64 // duplicate (already received) data packets seen
}

// RNIC models the host NIC's RoCE engine: it owns the QPs, dispatches
// received packets, and serializes end-host stack costs on a single
// CPU-like resource (posts and deliveries contend, which is what makes
// AMcast relays expensive).
type RNIC struct {
	Host *simnet.Host
	Cfg  Config

	// CtrlHandler receives packets that are not RoCE transport traffic
	// (MRP registration, raw application control).
	CtrlHandler func(p *simnet.Packet)

	Stats Stats

	eng     *sim.Engine
	qps     map[uint32]*QP
	lastQPN uint32 // receive's one-entry demux cache (lastQP nil = invalid)
	lastQP  *QP
	nextQPN uint32
	nextMsg uint64
	cpuNext sim.Time
	cpuQ    taskRing   // host-stack work queue, FIFO in completion time
	cpuT    *sim.Timer // one re-armable timer walks cpuQ (see stackDefer)

	// blocked holds QPs deferred by NIC backpressure, resumed on drain.
	// spare is the list kick drained last time: the two backing arrays
	// take turns, so a backpressure cycle parks QPs without allocating.
	blocked, spare []*QP

	// tr is the host's flight-recorder handle (shared with the NIC port);
	// nil while tracing is off.
	tr *obs.Tracer

	// gs is the cluster's group-stats registry; nil while group
	// attribution is off (the nil check is the entire disabled cost).
	gs *obs.GroupStats
}

// SetTracer attaches the host's flight-recorder handle. Transport events
// (ACK/NACK/CNP tx+rx, retransmits, deliveries) record under the host's
// device id with Port = -1.
func (r *RNIC) SetTracer(tr *obs.Tracer) { r.tr = tr }

// SetGroupStats attaches the cluster's group-stats registry. Responder QPs book
// accepted multicast payload and message latency against it; requester QPs
// book retransmissions. Attribution is pure host-side accounting — it
// schedules nothing and mutates no packet, so enabling it never perturbs
// the simulation.
func (r *RNIC) SetGroupStats(gs *obs.GroupStats) { r.gs = gs }

// rec captures one transport event against packet p; callers guard with
// r.tr.On().
func (r *RNIC) rec(k obs.Kind, p *simnet.Packet, a, b int64) {
	r.tr.Record(r.eng.Now(), k, obs.RNone, -1, uint8(p.Type), uint32(p.Src), uint32(p.Dst), p.SrcQP, p.DstQP, p.PSN, p.MsgID, a, b)
}

// EachQP calls fn for every QP on the NIC in ascending QPN order (a
// deterministic iteration over the otherwise unordered map).
func (r *RNIC) EachQP(fn func(*QP)) {
	ids := make([]uint32, 0, len(r.qps))
	for id := range r.qps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fn(r.qps[id])
	}
}

// MergeDeliveryLatency folds every QP's delivery-latency histogram into h.
// Histogram merge is commutative, so the map iteration order is irrelevant.
func (r *RNIC) MergeDeliveryLatency(h *obs.Histogram) {
	for _, qp := range r.qps {
		h.Merge(&qp.LatHist)
	}
}

// MergeMessageLatency folds every QP's per-message delivery-latency
// histogram into h (first data packet emitted to last packet accepted).
func (r *RNIC) MergeMessageLatency(h *obs.Histogram) {
	for _, qp := range r.qps {
		h.Merge(&qp.MsgLatHist)
	}
}

// NewRNIC attaches a RoCE engine to a host and installs itself as the
// host's packet handler.
func NewRNIC(h *simnet.Host, cfg Config) *RNIC {
	// Message ids are namespaced by host address (high 32 bits) so they are
	// globally unique: span reconstruction can follow one message across the
	// fabric, and the originator is recoverable as msg>>32. The values are
	// behaviorally opaque — only equality matters to the protocol — so this
	// changes no simulated outcome.
	r := &RNIC{Host: h, Cfg: cfg, eng: h.Engine(), qps: make(map[uint32]*QP),
		nextQPN: 2, nextMsg: uint64(uint32(h.IP)) << 32}
	h.Handler = r.receive
	// NIC backpressure: QPs stop injecting when the egress queue holds a
	// few packets (or the link is PFC-paused) and resume as it drains,
	// instead of overrunning a drop-tail queue.
	h.NIC.LowWater = 2 * (cfg.MTU + simnet.WireOverhead)
	h.NIC.OnDrain = r.kick
	return r
}

// nicBackpressured reports whether QPs should hold off injecting.
func (r *RNIC) nicBackpressured() bool {
	nic := r.Host.NIC
	return nic.Paused() || nic.QueuedBytes() > 4*(r.Cfg.MTU+simnet.WireOverhead)
}

// defer1 parks a QP until the NIC drains.
func (r *RNIC) defer1(qp *QP) {
	if qp.backpressured {
		return
	}
	qp.backpressured = true
	r.blocked = append(r.blocked, qp)
}

// kick resumes every parked QP in the order they parked. QPs that park
// again while it runs go to the other list; spare is empty for the
// duration, so a nested kick starts a fresh list instead of reusing qs.
func (r *RNIC) kick() {
	if len(r.blocked) == 0 {
		return
	}
	qs := r.blocked
	r.blocked, r.spare = r.spare[:0], nil
	for _, qp := range qs {
		qp.backpressured = false
		qp.trySend()
	}
	clear(qs)
	r.spare = qs[:0]
}

// Engine returns the simulation engine.
func (r *RNIC) Engine() *sim.Engine { return r.eng }

// CreateQP allocates a queue pair. QPN 0 and 1 are reserved (1 is the
// Cepheus virtual remote QPN).
func (r *RNIC) CreateQP() *QP {
	qp := newQP(r, r.nextQPN)
	r.qps[r.nextQPN] = qp
	r.nextQPN++
	r.lastQPN, r.lastQP = 0, nil
	return qp
}

// QP returns the queue pair with the given number, or nil.
func (r *RNIC) QP(qpn uint32) *QP { return r.qps[qpn] }

// cpuTask is one unit of queued host-stack work: run fn at time at.
type cpuTask struct {
	at sim.Time
	fn func()
}

// taskRing is a FIFO of cpuTasks backed by a power-of-two circular buffer,
// the same shape as simnet's flight ring. Completion times are nondecreasing
// because stackDefer serializes work on cpuNext.
type taskRing struct {
	buf        []cpuTask
	head, tail int // head = next pop, tail = next push slot
	n          int
}

func (r *taskRing) len() int { return r.n }

func (r *taskRing) grow() {
	nb := make([]cpuTask, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head, r.tail = nb, 0, r.n
}

func (r *taskRing) pushBack(t cpuTask) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail] = t
	r.tail = (r.tail + 1) & (len(r.buf) - 1)
	r.n++
}

func (r *taskRing) peekFront() *cpuTask { return &r.buf[r.head] }

func (r *taskRing) popFront() cpuTask {
	t := r.buf[r.head]
	r.buf[r.head].fn = nil // drop the closure reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}

// stackDefer runs fn after cost nanoseconds of serialized host-stack time.
// The stack is a single serial resource: concurrent posts/deliveries queue
// behind each other, which bounds message rate the way a real verbs stack
// and CPU core do.
//
// Tasks complete in nondecreasing cpuNext order, so instead of a scheduled
// event per task the queue is a FIFO walked by one re-armable timer: only
// the head task occupies the event queue, and each completion re-arms in
// place.
func (r *RNIC) stackDefer(cost sim.Time, fn func()) {
	start := r.eng.Now()
	if r.cpuNext > start {
		start = r.cpuNext
	}
	r.cpuNext = start + cost
	r.cpuQ.pushBack(cpuTask{at: r.cpuNext, fn: fn})
	if r.cpuQ.len() == 1 {
		if r.cpuT == nil {
			r.cpuT = r.eng.NewTimer(r.onCPU)
		}
		r.cpuT.Reset(r.cpuNext - r.eng.Now())
	}
}

// onCPU completes the head host-stack task and re-arms for the next one.
func (r *RNIC) onCPU() {
	t := r.cpuQ.popFront()
	if r.cpuQ.len() > 0 {
		// The timer fired exactly at t.at, so it is "now" without a clock read.
		r.cpuT.Reset(r.cpuQ.peekFront().at - t.at)
	}
	t.fn()
}

func (r *RNIC) receive(p *simnet.Packet) {
	switch p.Type {
	case simnet.Data, simnet.Ack, simnet.Nack, simnet.CNP:
		// One-entry demux cache: a NIC's traffic is dominated by one QP at
		// a time, so the common case skips the map access. CreateQP
		// invalidates it (QPs are never deleted).
		qp := r.lastQP
		if qp == nil || p.DstQP != r.lastQPN {
			var ok bool
			qp, ok = r.qps[p.DstQP]
			if !ok {
				// Packets to a torn-down or unknown QP are dropped silently,
				// as an RNIC drops packets with no matching QP context.
				return
			}
			r.lastQPN, r.lastQP = p.DstQP, qp
		}
		qp.handle(p)
	default:
		if r.CtrlHandler != nil {
			r.CtrlHandler(p)
		}
	}
}

func (r *RNIC) String() string {
	return fmt.Sprintf("rnic(%s)", r.Host.Name)
}
