// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock in nanoseconds and executes scheduled
// callbacks in timestamp order. Events scheduled at the same instant run in
// the order they were scheduled, which keeps runs bit-for-bit reproducible
// for a given seed. Everything above it — links, switches, RNICs, the Cepheus
// accelerator — is built as callbacks on this engine.
//
// The scheduler is allocation-free on its hot paths: events wait in an
// exact-order calendar queue (8 ns buckets, each a list sorted by timestamp
// then schedule order, found through an occupancy bitmap), so the dense
// near-future band of a busy fabric costs O(1) per insert and pop instead of
// a heap's O(log n). Entries live in a recycled slot arena linked by index,
// so relinking triggers no GC write barriers; and Timers own a single entry
// that Reset relinks and Stop unlinks in place — arming and cancelling
// schedules no garbage. An event is either a closure or a timer. See
// DESIGN.md §8 for the internals.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Time is a point on the virtual clock, in nanoseconds since simulation start.
type Time int64

// Convenient duration units, expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// MaxTime is the latest representable instant. As a Run limit it never cuts
// a run short.
const MaxTime = Time(1<<63 - 1)

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 2*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < 2*Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < 2*Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// eslot is one scheduled entry: its ordering key, its links in a calendar
// bucket, and its payload. Exactly one of fn or tm is set: fn is a
// scheduled closure, tm a Timer's entry (the timer tracks its slot index, so
// Stop/Reset unlink it in O(1)). The links are slot indices rather than
// pointers, so relinking triggers no GC write barriers.
type eslot struct {
	at         Time
	seq        uint64 // tie-break: FIFO among equal timestamps
	next, prev int32  // neighbours in the bucket list, -1 at either end
	fn         func()
	tm         *Timer
}

// bucket is one calendar day's list, sorted by (at, seq); -1 when empty.
type bucket struct{ head, tail int32 }

const (
	// dayShift sets the bucket width: a day is 1<<dayShift = 8 ns, about
	// one 64-byte frame at 100 Gbps, so the dense near-future band of a
	// busy fabric spreads across buckets a few entries deep.
	dayShift = 3
	// minBuckets is the smallest calendar: one occupancy word.
	minBuckets = 64
)

// Engine is a single-threaded discrete-event scheduler with a seeded RNG.
// The zero value is not usable; construct with New.
type Engine struct {
	now   Time
	seq   uint64
	slots []eslot // entry arena, indexed by slot
	free  []int32 // recycled slot indices
	rng   *rand.Rand
	nRun  uint64

	// Calendar queue. Entry s lives in buckets[(slots[s].at>>dayShift)&mask];
	// occ has bit b set iff buckets[b] is non-empty. No queued entry's day
	// (at>>dayShift) is below day, and min caches the earliest entry (-1
	// when unknown or the queue is empty).
	buckets []bucket
	occ     []uint64
	mask    int64
	n       int // queued entries
	day     int64
	min     int32
}

// New returns an engine whose RNG is seeded with seed. Two engines built with
// the same seed and driven by the same code execute identical schedules.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), min: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsRun reports how many events have executed so far.
func (e *Engine) EventsRun() uint64 { return e.nRun }

// Credit adds n to the executed-event count without dispatching anything.
// The burst packet path uses it to keep event accounting comparable across
// scheduler generations: a train of n back-to-back frames executes as one
// serialization-complete timer plus n arrivals, but each frame still
// represents the two per-frame events (tx done, delivery) the vector path
// replaced, so the train credits the difference.
func (e *Engine) Credit(n uint64) { e.nRun += n }

// Pending reports how many events are currently scheduled. Stopped timers do
// not linger here: cancelling unlinks the entry immediately.
func (e *Engine) Pending() int { return e.n }

// NextEventTime returns the timestamp of the earliest pending event and
// whether one exists.
func (e *Engine) NextEventTime() (Time, bool) {
	if s := e.first(); s >= 0 {
		return e.slots[s].at, true
	}
	return 0, false
}

// ---- Exact-order calendar queue ----
//
// Time is cut into 8 ns days, and day d hashes to bucket d&mask. Each
// bucket is a doubly linked list sorted by (at, seq), so the queue pops in
// exactly the order a heap would. Inserting walks back from the bucket's
// tail: O(1) for the common case of the newest seq at or near the bucket's
// latest time. The pending entries of a busy fabric crowd the next
// microsecond, so the occupancy bitmap finds the next occupied day in a word
// or two; entries a full cycle or more ahead share buckets with nearer days
// and are skipped by comparing their day with the one being scanned.

// before orders entries by (timestamp, schedule order).
func (e *Engine) before(a, b int32) bool {
	x, y := &e.slots[a], &e.slots[b]
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

// allocSlot returns a free entry slot, recycling before growing.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slots = append(e.slots, eslot{})
	return int32(len(e.slots) - 1)
}

// link queues slot s, whose key is set, in its day's bucket.
func (e *Engine) link(s int32) {
	if e.n >= len(e.buckets) {
		e.grow()
	}
	e.n++
	sl := &e.slots[s]
	d := int64(sl.at >> dayShift)
	if e.n == 1 {
		e.day, e.min = d, s
	} else {
		// The cursor must stay at or below every queued day, or the next
		// scan would start past the new entry.
		if d < e.day {
			e.day = d
		}
		if e.min >= 0 && e.before(s, e.min) {
			e.min = s
		}
	}
	b := d & e.mask
	bk := &e.buckets[b]
	p := bk.tail
	if p < 0 {
		sl.prev, sl.next = -1, -1
		bk.head, bk.tail = s, s
		e.occ[b>>6] |= 1 << (b & 63)
		return
	}
	for p >= 0 && e.before(s, p) {
		p = e.slots[p].prev
	}
	sl.prev = p
	if p < 0 {
		sl.next = bk.head
		bk.head = s
	} else {
		sl.next = e.slots[p].next
		e.slots[p].next = s
	}
	if sl.next < 0 {
		bk.tail = s
	} else {
		e.slots[sl.next].prev = s
	}
}

// unlink takes slot s out of the queue. Unlinking the minimum hands the
// cache to its successor when that shares the day: a day lives in one bucket
// only, so nothing elsewhere can come between them.
func (e *Engine) unlink(s int32) {
	sl := &e.slots[s]
	b := int64(sl.at>>dayShift) & e.mask
	bk := &e.buckets[b]
	if sl.prev < 0 {
		bk.head = sl.next
	} else {
		e.slots[sl.prev].next = sl.next
	}
	if sl.next < 0 {
		bk.tail = sl.prev
	} else {
		e.slots[sl.next].prev = sl.prev
	}
	if bk.head < 0 {
		e.occ[b>>6] &^= 1 << (b & 63)
	}
	e.n--
	if e.min == s {
		e.min = -1
		if nx := sl.next; nx >= 0 && e.slots[nx].at>>dayShift == sl.at>>dayShift {
			e.min = nx
		}
	}
}

// remove unlinks slot s, disarms its timer if it has one, and recycles it
// with its callback and timer references dropped for the GC.
func (e *Engine) remove(s int32) {
	e.unlink(s)
	sl := &e.slots[s]
	if sl.tm != nil {
		sl.tm.slot = -1
	}
	sl.fn, sl.tm = nil, nil
	e.free = append(e.free, s)
}

// first returns the earliest queued slot, or -1 when the queue is empty.
// It stays small enough to inline into the per-event path; scan does the
// work when the cache is cold.
func (e *Engine) first() int32 {
	if e.min >= 0 || e.n == 0 {
		return e.min
	}
	return e.scan()
}

// scan finds, caches and returns the minimum of a non-empty queue whose
// cache is cold.
func (e *Engine) scan() int32 {
	// Walk the occupied buckets from the cursor's day for one cycle. A
	// bucket's head is its earliest entry, so the first head whose day is
	// the day being scanned is the minimum.
	nb := int64(len(e.buckets))
	for d, end := e.day, e.day+nb; d < end; d++ {
		b := d & e.mask
		w := e.occ[b>>6] >> (b & 63)
		if w == 0 {
			d += 63 - b&63 // to the next word's first bucket
			continue
		}
		d += int64(bits.TrailingZeros64(w))
		if d >= end {
			break
		}
		if h := e.buckets[d&e.mask].head; int64(e.slots[h].at>>dayShift) == d {
			e.day, e.min = d, h
			return h
		}
	}
	// Nothing within a cycle: the earliest bucket head is the minimum.
	best := int32(-1)
	for i, w := range e.occ {
		for ; w != 0; w &= w - 1 {
			h := e.buckets[i<<6+bits.TrailingZeros64(w)].head
			if best < 0 || e.before(h, best) {
				best = h
			}
		}
	}
	e.day, e.min = int64(e.slots[best].at>>dayShift), best
	return best
}

// grow doubles the calendar (to minBuckets at first) so it always has at
// least one bucket per queued entry, and relinks every entry. Old bucket b
// splits into new buckets b and b+old, and relinking it in order appends at
// each tail, so the rehash is linear; it also recomputes the cursor and the
// cached minimum.
func (e *Engine) grow() {
	old := e.buckets
	nb := max(2*len(old), minBuckets)
	e.buckets = make([]bucket, nb)
	for i := range e.buckets {
		e.buckets[i] = bucket{-1, -1}
	}
	e.occ = make([]uint64, nb/64)
	e.mask = int64(nb - 1)
	e.n = 0
	for _, ob := range old {
		for s := ob.head; s >= 0; {
			next := e.slots[s].next
			e.link(s)
			s = next
		}
	}
}

// Schedule runs fn at absolute time at. It panics if at precedes Now, since a
// causal model can never schedule into the past.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	s := e.allocSlot()
	sl := &e.slots[s]
	sl.at, sl.seq, sl.fn = at, e.seq, fn
	e.link(s)
}

// After runs fn d nanoseconds from now. A negative d panics via Schedule.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// Timer is a cancellable, re-armable scheduled callback. A timer owns at most
// one queue entry: Reset re-arms it in place and Stop removes it immediately,
// so arm/cancel churn (RoCE retransmission timers, DCQCN rate timers) neither
// allocates nor strands dead entries in the scheduler until their deadline.
// Construct with Engine.NewTimer (reusable across arms) or Engine.AfterTimer.
type Timer struct {
	eng   *Engine
	fn    func()
	slot  int32 // entry slot while armed, -1 otherwise
	fired bool
}

// NewTimer creates an unarmed timer that will run fn each time it fires.
// The callback is fixed at construction so re-arming allocates nothing.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn, slot: -1}
}

// AfterTimer schedules fn after d and returns a handle that can cancel or
// re-arm it.
func (e *Engine) AfterTimer(d Time, fn func()) *Timer {
	t := e.NewTimer(fn)
	t.Reset(d)
	return t
}

// Reset (re-)arms the timer to fire d nanoseconds from now, whether it is
// pending, stopped, or already fired. A pending timer's entry is unlinked and
// relinked under its new key; no new entry is created.
func (t *Timer) Reset(d Time) {
	e := t.eng
	at := e.now + d
	if at < e.now {
		panic(fmt.Sprintf("sim: timer reset at %v before now %v", at, e.now))
	}
	t.fired = false
	e.seq++
	s := t.slot
	if s >= 0 {
		e.unlink(s)
	} else {
		s = e.allocSlot()
		e.slots[s].tm = t
		t.slot = s
	}
	e.slots[s].at, e.slots[s].seq = at, e.seq
	e.link(s)
}

// Stop cancels the timer if it is pending, removing its entry from the
// scheduler immediately. It reports whether the call prevented the callback
// from running.
func (t *Timer) Stop() bool {
	if t.slot < 0 {
		return false
	}
	t.eng.remove(t.slot)
	return true
}

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.slot >= 0 }

// Fired reports whether the callback ran since the last Reset.
func (t *Timer) Fired() bool { return t.fired }

// step executes the next pending event, which must exist, advancing the
// clock to its timestamp. Callers drive the engine through Run, never event
// by event.
//
// A timer at the minimum dispatches in place: if its callback re-arms it
// (the dominant pattern for port serialization chains and QP pacers), Reset
// relinks the existing entry instead of a remove/insert pair plus slot churn.
func (e *Engine) step() {
	s := e.first()
	sl := &e.slots[s]
	e.now = sl.at
	e.nRun++
	if tm := sl.tm; tm != nil {
		tm.fired = true
		tm.fn()
		if tm.slot == s && tm.fired {
			// Neither Reset (clears fired; may recycle the same slot) nor
			// Stop (clears slot) ran in the callback: retire the entry.
			e.remove(s)
		}
		return
	}
	// Retire the entry before dispatching, so a callback that schedules
	// immediately reuses the slot it just vacated.
	fn := sl.fn
	e.remove(s)
	fn()
}

// Outcome reports why a Run returned.
type Outcome int

const (
	// Done: the caller's predicate became true.
	Done Outcome = iota
	// Quiescent: no events remain.
	Quiescent
	// Horizon: the next event lies beyond the caller's time limit; it has
	// not been executed.
	Horizon
)

func (o Outcome) String() string {
	switch o {
	case Done:
		return "done"
	case Quiescent:
		return "quiescent"
	case Horizon:
		return "horizon"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Run executes events until pred returns true, the next event lies beyond
// limit, or none remain. pred may be nil; it is checked before the first
// event and after every event, so on Done the clock stands at the event that
// satisfied it.
func (e *Engine) Run(limit Time, pred func() bool) Outcome {
	for pred == nil || !pred() {
		at, ok := e.NextEventTime()
		if !ok {
			return Quiescent
		}
		if at > limit {
			return Horizon
		}
		e.step()
	}
	return Done
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	e.Run(t, nil)
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d virtual nanoseconds from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
