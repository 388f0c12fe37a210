package obs

import (
	"cmp"
	"slices"

	"repro/internal/sim"
)

// Tracer is a per-device recording handle. Devices hold a *Tracer that is
// nil while tracing is off; the nil check in On is the entire disabled-path
// cost.
type Tracer struct {
	r   *Recorder
	dev uint32
}

// On reports whether this tracer records. Safe on a nil receiver — the
// idiomatic guard at every record site is:
//
//	if tr.On() { tr.Record(...) }
func (t *Tracer) On() bool { return t != nil }

// Record captures one event. Allocation-free: a field-wise store into the
// ring — each field is written exactly once, with no zeroing of a temporary
// Event (a by-value signature benchmarks ~70% slower for exactly that
// reason). port is the device-local port id (-1 when not port-scoped), pt
// the simnet.PacketType of the frame involved (0/DATA when none). The
// attached observer, if any, sees the event as soon as it is written.
func (t *Tracer) Record(at sim.Time, k Kind, reason Reason, port int, pt uint8, src, dst, srcQP, dstQP uint32, psn, msg uint64, a, b int64) {
	r := t.r
	e := &r.ring[r.n&r.mask]
	r.n++
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
	if r.observer != nil {
		r.observer(e)
	}
}

// Dev returns the device id this tracer records under.
func (t *Tracer) Dev() uint32 { return t.dev }

// Recorder is the flight recorder: one overwrite-oldest ring that every
// device records into. It keeps the newest capacity events — a flight
// recorder keeps the recent past, not everything.
type Recorder struct {
	ring     []Event
	mask     uint64 // len(ring)-1; the ring is a power of two so Record masks instead of dividing
	n        uint64 // events recorded since creation
	capacity uint64 // events an export keeps, at most len(ring)
	devNames []string
	observer func(*Event)
}

// NewRecorder creates a recorder that keeps the newest capacity events (at
// least 1024).
func NewRecorder(capacity int) *Recorder {
	capacity = max(capacity, 1024)
	pow := 1
	for pow < capacity {
		pow <<= 1
	}
	return &Recorder{ring: make([]Event, pow), mask: uint64(pow - 1), capacity: uint64(capacity)}
}

// NewTracer registers a device and returns its recording handle.
// Registration order defines device ids, so callers must register in a
// topology-derived order.
func (r *Recorder) NewTracer(name string) *Tracer {
	t := &Tracer{r: r, dev: uint32(len(r.devNames))}
	r.devNames = append(r.devNames, name)
	return t
}

// DevName returns the registered name for a device id.
func (r *Recorder) DevName(dev uint32) string {
	if int(dev) < len(r.devNames) {
		return r.devNames[dev]
	}
	return "?"
}

// Attach registers fn to observe every event Record writes, in record
// order, before the ring can overwrite it. The pointer is valid only for
// the duration of the call; copy to retain.
func (r *Recorder) Attach(fn func(*Event)) { r.observer = fn }

// kept is how many of the recorded events an export returns.
func (r *Recorder) kept() uint64 { return min(r.n, r.capacity) }

// Lost returns how many recorded events are past the newest capacity and
// so missing from exports. A flight recorder with Lost() == 0 captured the
// complete history.
func (r *Recorder) Lost() uint64 { return r.n - r.kept() }

// Events returns a copy of the newest capacity events in canonical
// (At, Dev, record order) order. That order is a pure function of the
// simulated history, so exports are directly comparable across runs.
func (r *Recorder) Events() []Event {
	return r.EventsUntil(sim.Time(1<<63 - 1))
}

// EventsUntil is Events restricted to events with At <= cutoff.
func (r *Recorder) EventsUntil(cutoff sim.Time) []Event {
	out := make([]Event, 0, r.kept())
	for i := r.n - r.kept(); i < r.n; i++ {
		if e := &r.ring[i&r.mask]; e.At <= cutoff {
			out = append(out, *e)
		}
	}
	// Stable: a device's same-time events keep their record order.
	slices.SortStableFunc(out, func(a, b Event) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Dev, b.Dev)
	})
	return out
}
