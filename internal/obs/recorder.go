package obs

import (
	"sort"

	"repro/internal/sim"
)

// shard is the flight recorder's write buffer: a fixed-size ring of Events
// that every device records into, drained into the central ring by Drain.
// When the ring fills, the oldest events are overwritten and counted in
// lost — a flight recorder keeps the recent past, not everything.
type shard struct {
	ring []Event
	mask int // len(ring)-1; ring capacity is a power of two so the hot path masks instead of dividing
	head int
	n    int
	lost uint64
}

// slot returns the next ring entry to write, overwriting the oldest when
// full. Handing out the slot pointer lets Record store each field exactly
// once instead of building an Event and copying 64 bytes.
func (s *shard) slot() *Event {
	if s.n < len(s.ring) {
		e := &s.ring[(s.head+s.n)&s.mask]
		s.n++
		return e
	}
	e := &s.ring[s.head]
	s.head = (s.head + 1) & s.mask
	s.lost++
	return e
}

// Tracer is a per-device recording handle. Devices hold a *Tracer that is
// nil while tracing is off; the nil check in On is the entire disabled-path
// cost. Seq numbers events per device: a device's events are totally ordered
// by its own execution, which is deterministic, so (At, Dev, Seq) is a
// canonical order. Seq is stamped at the drain, not in Record — a
// device's events leave the shard in record order, so the numbering is
// identical and the hot path saves a store.
type Tracer struct {
	sh  *shard
	dev uint32
}

// On reports whether this tracer records. Safe on a nil receiver — the
// idiomatic guard at every record site is:
//
//	if tr.On() { tr.Record(...) }
func (t *Tracer) On() bool { return t != nil }

// Record captures one event. Allocation-free: a field-wise store into the
// shard ring — each field is written exactly once, with no zeroing of a
// temporary Event (a by-value signature benchmarks ~70% slower for exactly
// that reason). port is the device-local port id (-1 when not port-scoped),
// pt the simnet.PacketType of the frame involved (0/DATA when none). Dev is
// stamped here, Seq at the next drain.
func (t *Tracer) Record(at sim.Time, k Kind, reason Reason, port int, pt uint8, src, dst, srcQP, dstQP uint32, psn, msg uint64, a, b int64) {
	e := t.sh.slot()
	e.At = at
	e.PSN = psn
	e.Msg = msg
	e.A = a
	e.B = b
	e.Dev = t.dev
	e.Src = src
	e.Dst = dst
	e.SrcQP = srcQP
	e.DstQP = dstQP
	e.Port = int16(port)
	e.Kind = k
	e.Reason = reason
	e.PT = pt
}

// Dev returns the device id this tracer records under.
func (t *Tracer) Dev() uint32 { return t.dev }

// Recorder owns the flight-recorder storage: the shard devices record into
// plus a central ring the shard drains into (at Drain, which the audit
// drain timer and every export call).
type Recorder struct {
	sh       shard
	devNames []string
	devSeq   []uint32 // next Seq per device, advanced at drains

	central []Event
	chead   int
	cn      int
	clost   uint64

	scratch []Event
	sorter  drainSort // persistent sort adapter: Drain stays allocation-free

	observer func(*Event)
}

// drainSort orders a drain by time; sort.Stable preserves the
// shard's causal ring order among same-time events. A pointer to a
// persistent instance converts to sort.Interface without allocating, unlike
// sort.SliceStable's per-call closure + reflect.Swapper — this runs on every
// audit drain while tracing, so it must not allocate.
type drainSort struct{ ev []Event }

func (s *drainSort) Len() int           { return len(s.ev) }
func (s *drainSort) Less(i, j int) bool { return s.ev[i].At < s.ev[j].At }
func (s *drainSort) Swap(i, j int)      { s.ev[i], s.ev[j] = s.ev[j], s.ev[i] }

// NewRecorder creates a recorder whose central ring holds capacity events
// (at least 1024). The shard holds the next power of two at or above that,
// so a drain never loses what the central ring could keep.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1024 {
		capacity = 1024
	}
	// Round up to a power of two: push masks instead of dividing.
	pow := 1
	for pow < capacity {
		pow <<= 1
	}
	return &Recorder{
		sh:      shard{ring: make([]Event, pow), mask: pow - 1},
		central: make([]Event, capacity),
	}
}

// NewTracer registers a device and returns its recording handle.
// Registration order defines device ids, so callers must register in a
// topology-derived order.
func (r *Recorder) NewTracer(name string) *Tracer {
	t := &Tracer{sh: &r.sh, dev: uint32(len(r.devNames))}
	r.devNames = append(r.devNames, name)
	r.devSeq = append(r.devSeq, 0)
	return t
}

// DevName returns the registered name for a device id.
func (r *Recorder) DevName(dev uint32) string {
	if int(dev) < len(r.devNames) {
		return r.devNames[dev]
	}
	return "?"
}

func (r *Recorder) pushCentral(e *Event) {
	if r.cn < len(r.central) {
		r.central[(r.chead+r.cn)%len(r.central)] = *e
		r.cn++
		return
	}
	r.central[r.chead] = *e
	r.chead = (r.chead + 1) % len(r.central)
	r.clost++
}

// Drain drains the shard into the central ring in (time, ring order),
// feeding each event to the attached observer first. The audit drain timer
// calls it periodically and Events at export. The sort is stable,
// preserving the shard's causal ring order among same-time events.
func (r *Recorder) Drain() {
	r.scratch = r.scratch[:0]
	s := &r.sh
	for s.n > 0 {
		e := s.ring[s.head]
		// Stamp the per-device sequence here: shard ring order is the
		// device's record order, so this numbering matches what the hot
		// path would have produced, one store cheaper.
		e.Seq = r.devSeq[e.Dev]
		r.devSeq[e.Dev]++
		r.scratch = append(r.scratch, e)
		s.head = (s.head + 1) & s.mask
		s.n--
	}
	r.sorter.ev = r.scratch
	sort.Stable(&r.sorter)
	if r.observer != nil {
		for i := range r.scratch {
			r.observer(&r.scratch[i])
		}
	}
	for i := range r.scratch {
		r.pushCentral(&r.scratch[i])
	}
}

// Attach registers fn to observe every event as it drains through Drain,
// after the deterministic (time, ring order) sort and before central-ring
// eviction can lose it. Because drains only move the drain *boundaries* —
// never the order of any device's events, which is its own record order —
// a per-device streaming consumer (the invariant auditor) sees the same
// per-device history at every drain cadence. The pointer is valid only for
// the duration of the call; copy to retain.
func (r *Recorder) Attach(fn func(*Event)) { r.observer = fn }

// Lost returns how many events were overwritten before export (shard
// overflow between drains plus central-ring eviction). A flight recorder
// with Lost() == 0 captured the complete history.
func (r *Recorder) Lost() uint64 { return r.clost + r.sh.lost }

// ShardLost returns how many events were overwritten in the shard before a
// drain emptied it — events an attached observer never saw. Central-
// ring eviction (the rest of Lost) happens after observers run, so ShardLost
// is the auditor's true coverage gap even when the ring forgot old history.
func (r *Recorder) ShardLost() uint64 { return r.sh.lost }

// Events drains any shard residue and returns a copy of the recorded
// history in canonical (At, Dev, Seq) order. That order is a pure function
// of the simulated history, so exports are directly comparable across runs.
func (r *Recorder) Events() []Event {
	return r.EventsUntil(sim.Time(1<<63 - 1))
}

// EventsUntil is Events restricted to events with At <= cutoff.
func (r *Recorder) EventsUntil(cutoff sim.Time) []Event {
	r.Drain()
	out := make([]Event, 0, r.cn)
	for i := 0; i < r.cn; i++ {
		e := &r.central[(r.chead+i)%len(r.central)]
		if e.At <= cutoff {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Dev != b.Dev {
			return a.Dev < b.Dev
		}
		return a.Seq < b.Seq
	})
	return out
}
