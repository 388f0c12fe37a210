package simnet

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Device is anything that terminates a link: a host NIC or a switch.
type Device interface {
	// Receive is called when a packet finishes arriving on one of the
	// device's ports.
	Receive(p *Packet, in *Port)
	// DeviceName identifies the device in traces and errors.
	DeviceName() string
}

// ECNConfig is RED-style marking at an egress queue, as DCQCN expects.
// A packet is CE-marked with probability 0 below KminBytes, PMax above
// KmaxBytes, and linearly in between, evaluated against the instantaneous
// queue depth at enqueue.
type ECNConfig struct {
	Enabled   bool
	KminBytes int
	KmaxBytes int
	PMax      float64
}

// DefaultECN returns the marking profile used on 100Gbps ports (see
// DESIGN.md §5).
func DefaultECN() ECNConfig {
	return ECNConfig{Enabled: true, KminBytes: 100 << 10, KmaxBytes: 400 << 10, PMax: 0.2}
}

// PortStats counts what happened on a port's egress side.
type PortStats struct {
	TxPackets  uint64
	TxBytes    uint64
	Drops      uint64
	ECNMarks   uint64
	MaxQueued  int
	PauseSent  uint64
	ResumeSent uint64

	// FaultDrops counts frames lost to a dead link: queued frames purged
	// when the port went down, frames enqueued while down, and in-flight
	// frames whose link failed before delivery. It is a subset of nothing —
	// a separate category from congestion Drops.
	FaultDrops uint64

	// Gray-failure impairment drops (see impair.go), each its own category:
	// ImpairDrops counts frames lost to independent or burst wire loss,
	// CorruptDrops frames killed by injected CRC corruption, StormDrops
	// control frames lost to a control-plane loss storm.
	ImpairDrops  uint64
	CorruptDrops uint64
	StormDrops   uint64
}

// Port is one end of a full-duplex link. The port owns its egress queue and
// serializes transmissions at the link rate; the peer's device receives each
// packet after the serialization plus propagation delay.
type Port struct {
	Dev  Device
	ID   int // index within the owning device
	Peer *Port

	RateBps   float64  // link bandwidth in bits/second
	PropDelay sim.Time // one-way propagation (plus per-hop pipeline) delay

	QueueLimit int // egress queue capacity in bytes (0 = unlimited)
	ECN        ECNConfig

	// Backpressure to the attached sender: when the queue drains to
	// LowWater bytes or below (and after a PFC resume), OnDrain fires so a
	// transport can resume injecting — the way an RNIC stops posting to a
	// paused or full MAC instead of dropping.
	LowWater int
	OnDrain  func()

	Stats PortStats

	eng    *sim.Engine
	queues [2]pktRing // [0] control/feedback (strict priority), [1] data
	qBytes int
	busy   bool // per-frame (impaired) path only; burst path uses busyUntil
	paused bool

	// Burst transmission state. busyUntil is when the committed train
	// finishes serializing: the link is busy while now < busyUntil, with no
	// standing txDone event — if the train drained the queue, nothing is
	// scheduled at all, and an enqueue arriving mid-serialization arms txT
	// for the train boundary on demand (txArmedAt remembers the deadline it
	// is armed for, so repeated enqueues on a busy port stay O(1)). flight
	// holds locally delivered frames from commit until arrival, drained
	// FIFO by the re-armable rxT chain — one queue entry per busy link
	// instead of one per in-flight frame. Both timers are created lazily on
	// first use.
	busyUntil sim.Time
	txArmedAt sim.Time
	txT       *sim.Timer
	rxT       *sim.Timer
	flight    flightRing

	// Fail-stop state: a down port neither transmits nor accepts frames.
	// epoch increments on every transition so frames already in flight when
	// the link died are discarded at delivery time.
	down  bool
	epoch uint64

	// Gray-failure state: nil on a healthy egress (the nil check is the
	// entire disabled cost); see impair.go.
	imp *impairState

	// Observability. tr is the owning device's flight-recorder handle (nil
	// while tracing is off — the nil check is the entire disabled cost); fab
	// is the cluster's queue-depth histogram (nil-safe), observed at every
	// enqueue.
	tr  *obs.Tracer
	fab *obs.Fabric

	// gs is the cluster's group-stats registry (nil while group attribution
	// is off — the nil check is the entire disabled cost). Ports only
	// attribute drops: delivery and retransmission are booked end-host
	// side, where the group is known without classification.
	gs *obs.GroupStats
}

// SetTracer attaches the owning device's flight-recorder handle. Port events
// record under that device id with Port distinguishing the egress.
func (pt *Port) SetTracer(tr *obs.Tracer) { pt.tr = tr }

// SetFabric attaches the cluster's queue-depth histogram.
func (pt *Port) SetFabric(fab *obs.Fabric) { pt.fab = fab }

// SetGroupStats attaches the cluster's group-stats registry.
func (pt *Port) SetGroupStats(gs *obs.GroupStats) { pt.gs = gs }

// drop is the port's one sink for a frame it kills. In this order it counts
// the drop under r's counter, books it against the frame's group, records
// KDrop with payload a (the queue depth the auditor replays), and releases p.
// Stats.Drops counts every frame killed at or in the queue: it is
// RQueueLimit's counter, and the callers that kill a frame at or in a down
// queue (enqueue while down, purge) bump it beside RFault's.
func (pt *Port) drop(p *Packet, r obs.Reason, a int64) {
	switch r {
	case obs.RQueueLimit:
		pt.Stats.Drops++
	case obs.RFault:
		pt.Stats.FaultDrops++
	case obs.RImpairLoss:
		pt.Stats.ImpairDrops++
	case obs.RCorrupt:
		pt.Stats.CorruptDrops++
	case obs.RStormLoss:
		pt.Stats.StormDrops++
	}
	size := int64(p.Size())
	pt.gs.DropFrame(uint32(p.Src), uint32(p.Dst), pt.eng.Now(), size)
	if pt.tr.On() {
		pt.rec(obs.KDrop, r, p, a, size)
	}
	p.Release()
}

// rec captures one packet-scoped flight-recorder event; callers guard with
// pt.tr.On(). a is the kind-specific payload (usually queue depth in bytes);
// size is p's wire size, passed in so the hot callers (enqueue/dequeue, which
// have it at hand) keep this wrapper within the inlining budget — recording a
// traced event then costs one call, not two.
func (pt *Port) rec(k obs.Kind, r obs.Reason, p *Packet, a, size int64) {
	pt.tr.Record(pt.eng.Now(), k, r, pt.ID, uint8(p.Type), uint32(p.Src), uint32(p.Dst), p.SrcQP, p.DstQP, p.PSN, p.MsgID, a, size)
}

// maxTrain bounds one transmission train to 32 frames: long enough to
// amortize the per-train timer over a deep queue, short enough that pause and
// drain reactions (which wait for the train boundary) stay within a few
// microseconds of wire time at 100Gbps.
const maxTrain = 32

// queue classes (Fig 7a's queue system: physical-queue-level isolation,
// with the multiplexer giving feedback strict priority over bulk data).
const (
	qCtrl = 0
	qData = 1
)

// pktRing is a FIFO of packets backed by a reusable circular buffer. A
// plain slice with append/[1:] leaks its front capacity, so a busy port's
// steady enqueue/dequeue cycle reallocates on nearly every frame; the ring
// allocates only when the queue outgrows its high-water mark.
type pktRing struct {
	buf  []*Packet
	head int
	n    int
}

func (r *pktRing) len() int { return r.n }

func (r *pktRing) grow() {
	c := len(r.buf) * 2
	if c == 0 {
		c = 8
	}
	nb := make([]*Packet, c)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = nb, 0
}

func (r *pktRing) pushBack(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

func (r *pktRing) pushFront(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head + len(r.buf) - 1) % len(r.buf)
	r.buf[r.head] = p
	r.n++
}

func (r *pktRing) popFront() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

// peekFront returns the head packet without dequeuing it. The caller must
// have checked len() > 0.
func (r *pktRing) peekFront() *Packet { return r.buf[r.head] }

// flightEntry is one committed frame riding the wire toward the peer: the
// packet plus its arrival time (serialization end + propagation).
type flightEntry struct {
	p  *Packet
	at sim.Time
}

// flightRing is the FIFO of committed-but-undelivered frames on a local
// link. Arrival times are nondecreasing (frames of one link serialize
// back-to-back and share the propagation delay), so one re-armable timer
// walking the ring replaces a queue entry per in-flight frame.
type flightRing struct {
	buf  []flightEntry
	head int
	n    int
}

func (r *flightRing) len() int { return r.n }

func (r *flightRing) grow() {
	c := len(r.buf) * 2 // capacity stays a power of two for the index masks
	if c == 0 {
		c = 8
	}
	nb := make([]flightEntry, c)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

func (r *flightRing) pushBack(e flightEntry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *flightRing) popFront() flightEntry {
	e := r.buf[r.head]
	r.buf[r.head].p = nil // drop the packet reference; pool reuse needs no zeroed at
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

func (r *flightRing) peekFront() *flightEntry { return &r.buf[r.head] }

func classOf(p *Packet) int {
	switch p.Type {
	case Data, Raw:
		return qData
	default:
		return qCtrl
	}
}

// NewPort creates an unconnected port owned by dev.
func NewPort(eng *sim.Engine, dev Device, rateBps float64, prop sim.Time) *Port {
	return &Port{Dev: dev, RateBps: rateBps, PropDelay: prop, eng: eng, QueueLimit: 4 << 20}
}

// Engine returns the engine the port schedules on.
func (pt *Port) Engine() *sim.Engine { return pt.eng }

// Connect wires two ports as a full-duplex link. Both sides must be
// unconnected.
func Connect(a, b *Port) {
	if a.Peer != nil || b.Peer != nil {
		panic("simnet: port already connected")
	}
	a.Peer = b
	b.Peer = a
}

// QueuedBytes reports the egress queue depth.
func (pt *Port) QueuedBytes() int { return pt.qBytes }

// Down reports whether the port is failed (fail-stop).
func (pt *Port) Down() bool { return pt.down }

// SetDown transitions the port's fail-stop state. Going down purges the
// egress queue (releasing any PFC accounting) and invalidates frames
// already serialized onto the wire; coming up clears a stale PFC pause so
// the link restarts from a clean slate. Both directions of a link fail
// independently — fault injectors typically flip both ends.
func (pt *Port) SetDown(down bool) {
	if pt.down == down {
		return
	}
	pt.down = down
	pt.epoch++
	if down {
		pt.purge()
		return
	}
	pt.paused = false
	pt.trySend()
}

// purge discards every queued frame, counting them as fault drops and
// releasing ingress-buffer accounting so PFC cannot deadlock on a dead link.
func (pt *Port) purge() {
	for cls := range pt.queues {
		for pt.queues[cls].len() > 0 {
			p := pt.queues[cls].popFront()
			acct, size := p.acct, p.Size()
			pt.Stats.Drops++
			pt.drop(p, obs.RFault, int64(pt.qBytes))
			if acct != nil {
				acct.release(size)
			}
		}
	}
	pt.qBytes = 0
}

// Paused reports whether PFC has paused this egress.
func (pt *Port) Paused() bool { return pt.paused }

// PeerIsHost reports whether the far end of the link is a host. The Cepheus
// accelerator uses this to decide where feedback header rewriting happens
// (at the leaf switch adjacent to the sender).
func (pt *Port) PeerIsHost() bool {
	if pt.Peer == nil {
		return false
	}
	_, ok := pt.Peer.Dev.(*Host)
	return ok
}

// TxTime returns the serialization delay for n bytes at this port's rate.
func (pt *Port) TxTime(n int) sim.Time {
	return sim.Time(float64(n*8) / pt.RateBps * 1e9)
}

// Send enqueues p for transmission, applying ECN marking and drop-tail.
func (pt *Port) Send(p *Packet) {
	pt.enqueue(p, false)
}

// SendUrgent enqueues p at the head of the control queue, bypassing ECN
// and the queue limit. It is used for PFC PAUSE/RESUME frames, which a
// real switch emits from a dedicated high-priority path.
func (pt *Port) SendUrgent(p *Packet) {
	if pt.down {
		pt.Stats.Drops++
		pt.drop(p, obs.RFault, int64(pt.qBytes))
		return
	}
	p.enqAt = pt.eng.Now()
	pt.queues[qCtrl].pushFront(p)
	pt.qBytes += p.Size()
	pt.fab.ObserveQueue(pt.qBytes)
	if pt.tr.On() {
		pt.rec(obs.KEnqueue, obs.RNone, p, int64(pt.qBytes), int64(p.Size()))
	}
	pt.trySend()
}

func (pt *Port) enqueue(p *Packet, urgent bool) {
	size := p.Size()
	if pt.down {
		pt.Stats.Drops++
		pt.drop(p, obs.RFault, int64(pt.qBytes))
		return
	}
	if pt.QueueLimit > 0 && pt.qBytes+size > pt.QueueLimit {
		// The packet never occupied the queue; no accounting to release.
		pt.drop(p, obs.RQueueLimit, int64(pt.qBytes))
		return
	}
	if mp := pt.markProbability(); pt.ECN.Enabled && p.Type == Data && mp > 0 {
		if pt.eng.Rand().Float64() < mp {
			p.ECN = true
			pt.Stats.ECNMarks++
			if pt.tr.On() {
				pt.rec(obs.KECNMark, obs.RNone, p, int64(pt.qBytes), int64(size))
			}
		}
	}
	if p.acct != nil {
		p.acct.add(size)
	}
	cls := classOf(p)
	p.enqAt = pt.eng.Now()
	pt.queues[cls].pushBack(p)
	pt.qBytes += size
	pt.fab.ObserveQueue(pt.qBytes)
	if pt.tr.On() {
		pt.rec(obs.KEnqueue, obs.RNone, p, int64(pt.qBytes), int64(size))
	}
	if pt.qBytes > pt.Stats.MaxQueued {
		pt.Stats.MaxQueued = pt.qBytes
	}
	pt.trySend()
}

func (pt *Port) markProbability() float64 {
	q := pt.qBytes
	switch {
	case q <= pt.ECN.KminBytes:
		return 0
	case q >= pt.ECN.KmaxBytes:
		return 1
	default:
		return pt.ECN.PMax * float64(q-pt.ECN.KminBytes) / float64(pt.ECN.KmaxBytes-pt.ECN.KminBytes)
	}
}

// trySend commits a train of back-to-back frames to the wire in one pass
// (the burst hot path, DESIGN.md §13). Every committed frame dequeues,
// records, and schedules its delivery immediately. If frames remain queued
// at the train boundary, one txT firing at serialization end forms the next
// train; if the train drained the queue, nothing is scheduled at all — the
// busyUntil deadline alone marks the link busy, and an enqueue arriving
// mid-serialization arms txT on demand. The train credits the engine with
// the per-frame events it elided so event accounting stays comparable
// across scheduler generations.
//
// Train formation must be independent of how an execution mode orders
// same-instant events: a frame enqueued at the very nanosecond the train
// forms may land before or after this call depending on tie order alone, so
// only frames whose enqAt predates the formation instant extend a train.
// The priority head is taken regardless when nothing older is queued — then
// the formation was triggered by that frame's own enqueue, which is not a
// tie. Excluded frames go on the next train at the same wire time either
// way.
func (pt *Port) trySend() {
	if pt.busy || pt.paused || pt.down || pt.qBytes == 0 {
		return
	}
	if pt.Peer == nil {
		panic(fmt.Sprintf("simnet: %s port %d transmitting on unconnected link", pt.Dev.DeviceName(), pt.ID))
	}
	now := pt.eng.Now()
	if now < pt.busyUntil {
		// Mid-serialization enqueue (or a port impaired mid-train): make
		// sure the next formation is scheduled at the train boundary.
		pt.armTx(now)
		return
	}
	if pt.imp != nil {
		pt.trySendImpaired()
		return
	}
	peer := pt.Peer
	end := now
	n := 0
	for n < maxTrain && !pt.paused && !pt.down && pt.qBytes > 0 {
		// Strict priority among frames that predate the formation instant:
		// control/feedback before bulk data.
		cls := -1
		var p *Packet
		if pt.queues[qCtrl].len() > 0 {
			if q := pt.queues[qCtrl].peekFront(); q.enqAt < now {
				cls, p = qCtrl, q
			}
		}
		if cls < 0 && pt.queues[qData].len() > 0 {
			if q := pt.queues[qData].peekFront(); q.enqAt < now {
				cls, p = qData, q
			}
		}
		if cls < 0 {
			if n > 0 {
				break
			}
			cls = qCtrl
			if pt.queues[qCtrl].len() == 0 {
				cls = qData
			}
			p = pt.queues[cls].peekFront()
		}
		pt.queues[cls].popFront()
		size := p.Size()
		pt.qBytes -= size
		if pt.tr.On() {
			pt.rec(obs.KDequeue, obs.RNone, p, int64(pt.qBytes), int64(size))
		}
		pt.Stats.TxPackets++
		pt.Stats.TxBytes += uint64(size)
		end += pt.TxTime(size)
		// Publish the busy deadline before the release and drain hooks run:
		// a PFC RESUME they emit can re-enter this port's trySend, which
		// must see the link busy and arm txT rather than form a second,
		// overlapping train.
		pt.busyUntil = end
		if p.acct != nil {
			p.acct.release(size)
			p.acct = nil
		}
		p.txEpoch, p.peerEpoch = pt.epoch, peer.epoch
		pt.commitFlight(p, end+pt.PropDelay)
		n++
		if pt.OnDrain != nil && pt.qBytes <= pt.LowWater {
			pt.OnDrain()
		}
	}
	if pt.qBytes > 0 {
		// Frames remain (deferred same-instant arrivals or the maxTrain
		// cap): the txT firing at the boundary is this train's one txDone.
		pt.armTx(now)
		pt.eng.Credit(uint64(n - 1))
	} else {
		// The train drained the queue: no txDone event at all. Credit the
		// whole train's worth so the ledger still reads one txDone plus one
		// arrival per frame.
		pt.eng.Credit(uint64(n))
	}
}

// armTx schedules the next train formation at the busyUntil boundary.
// txArmedAt makes re-arming idempotent, so every enqueue on a busy port
// costs a comparison, not a queue re-key.
func (pt *Port) armTx(now sim.Time) {
	if pt.txArmedAt == pt.busyUntil {
		return
	}
	if pt.txT == nil {
		pt.txT = pt.eng.NewTimer(pt.onTxDone)
	}
	pt.txT.Reset(pt.busyUntil - now)
	pt.txArmedAt = pt.busyUntil
}

// onTxDone fires at a train boundary that had more frames queued (or saw an
// enqueue mid-serialization): form the next train. Ingress accounting and
// drain callbacks already ran at commit time.
func (pt *Port) onTxDone() {
	pt.txArmedAt = 0
	pt.trySend()
}

// trySendImpaired is the per-frame transmit path for an impaired egress:
// gray-failure fates draw from the port RNG in a fixed per-frame order, and
// jittered arrivals are not FIFO, so impaired ports keep a per-frame
// schedule (impairTxDone and arrive events, see impairSend) instead of
// trains.
func (pt *Port) trySendImpaired() {
	cls := qCtrl
	if pt.queues[qCtrl].len() == 0 {
		cls = qData
	}
	p := pt.queues[cls].popFront()
	size := p.Size()
	pt.qBytes -= size
	if pt.tr.On() {
		pt.rec(obs.KDequeue, obs.RNone, p, int64(pt.qBytes), int64(size))
	}
	pt.busy = true
	tx := pt.TxTime(size)
	pt.Stats.TxPackets++
	pt.Stats.TxBytes += uint64(size)
	pt.impairSend(p, tx)
}

// commitFlight schedules a committed frame's local arrival through the
// flight ring, arming the rxT chain when the ring was idle.
func (pt *Port) commitFlight(p *Packet, at sim.Time) {
	first := pt.flight.len() == 0
	pt.flight.pushBack(flightEntry{p: p, at: at})
	if first {
		if pt.rxT == nil {
			pt.rxT = pt.eng.NewTimer(pt.onArrive)
		}
		pt.rxT.Reset(at - pt.eng.Now())
	}
}

// onArrive delivers the flight ring's head frame to the peer device,
// re-arming for the next arrival first so the receive path — which may
// forward and commit further frames — sees a consistent chain.
func (pt *Port) onArrive() {
	fe := pt.flight.popFront()
	if pt.flight.len() > 0 {
		// The timer fired exactly at fe.at, so it is "now" without an
		// engine clock read.
		pt.rxT.Reset(pt.flight.peekFront().at - fe.at)
	}
	pt.arrive(fe.p)
}

// arrive hands a frame that finished propagating to the peer device, unless
// either end of the link flapped while it was in flight.
func (pt *Port) arrive(p *Packet) {
	peer := pt.Peer
	if pt.epoch != p.txEpoch || peer.epoch != p.peerEpoch {
		pt.drop(p, obs.RFault, 0)
		return
	}
	peer.Dev.Receive(p, peer)
}

// setPaused flips PFC pause state on this egress.
func (pt *Port) setPaused(v bool) {
	if pt.paused != v && pt.tr.On() {
		k := obs.KPFCResume
		if v {
			k = obs.KPFCPause
		}
		pt.tr.Record(pt.eng.Now(), k, obs.RNone, pt.ID, 0, 0, 0, 0, 0, 0, 0, int64(pt.qBytes), 0)
	}
	pt.paused = v
	if !v {
		if pt.OnDrain != nil && pt.qBytes <= pt.LowWater {
			pt.OnDrain()
		}
		pt.trySend()
	}
}
