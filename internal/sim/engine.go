// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock in nanoseconds and executes scheduled
// callbacks in timestamp order. Events scheduled at the same instant run in
// the order they were scheduled, which keeps runs bit-for-bit reproducible
// for a given seed. Everything above it — links, switches, RNICs, the Cepheus
// accelerator — is built as callbacks on this engine.
//
// The scheduler is allocation-free on its hot paths: events are pointer-free
// key records in a hand-rolled 4-ary heap (payloads live in a recycled slot
// arena, so sifting triggers no GC write barriers), the typed
// Handler dispatch path carries a receiver plus argument without building a
// closure per event, and Timers own a single heap slot that Reset re-arms and
// Stop removes in place — arming and cancelling schedules no garbage. See
// DESIGN.md §8 for the internals.
package sim

import (
	"fmt"
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
// a run short; a Parallel run also uses it as the "no buffered cross-LP
// message" sentinel.
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

// Handler is the typed event dispatch path: hot paths implement OnEvent once
// and schedule (receiver, arg) pairs instead of building a closure per event.
// arg carries per-event state; storing pointers in it does not allocate.
type Handler interface {
	OnEvent(e *Engine, arg any)
}

// event is one heap key: the ordering fields plus the index of the payload
// slot. Keys are deliberately pointer-free so sifting them around the heap
// copies 24 bytes with no GC write barriers — the single hottest operation
// in the simulator.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	slot int32  // index into Engine.slots
}

// before orders events by (timestamp, schedule order).
func (ev *event) before(other *event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eslot is one scheduled callback's payload, parked outside the heap so heap
// moves never touch pointers. Exactly one of fn, h, or tm is set: fn is the
// closure path, h the typed-handler path, tm a Timer's slot (the timer tracks
// its slot index so Stop/Reset can find its heap key in O(1) via heap).
type eslot struct {
	fn   func()
	h    Handler
	arg  any
	tm   *Timer
	heap int32 // current heap index of this slot's key
}

// Engine is a single-threaded discrete-event scheduler with a seeded RNG.
// The zero value is not usable; construct with New.
//
// An engine can also be one logical process (LP) of a Parallel run (see
// parallel.go): it then carries its partition index and per-destination
// outboxes for cross-LP messages, but its heap, clock, and RNG remain
// strictly single-threaded — only the owning worker touches them.
type Engine struct {
	now    Time
	seq    uint64
	events []event // 4-ary min-heap of pointer-free key records
	slots  []eslot // payload arena, indexed by event.slot
	free   []int32 // recycled slot indices
	rng    *rand.Rand
	nRun   uint64

	// Parallel-execution identity: nil/0 for a standalone engine.
	par *Parallel
	lp  int32

	// Double-buffered cross-LP mailboxes, indexed by write parity then
	// destination LP. During window N the owning worker appends to parity
	// N%2 while destination workers merge the opposite parity (written in
	// window N-1) — so the merge and the next window overlap with a single
	// barrier between them. dirty lists the destinations this LP touched in
	// each parity (the sparse alternative to scanning all LPs^2 boxes every
	// window) and outMin tracks the earliest buffered timestamp per parity,
	// so the coordinator's next-window bound never walks the boxes.
	out    [2][]outbox
	dirty  [2][]int32
	outMin [2]Time

	// Inbound cross-LP slab: messages injected by the coordinator at window
	// barriers, kept sorted by (at, seq) and consumed from slabIdx forward.
	// Slab entries never enter the heap — step merges the two streams on the
	// fly — so a cross-LP hand-off costs zero heap operations on the
	// destination. slabScratch is the retired backing array, recycled on the
	// next merge so steady-state injection allocates nothing.
	slab        []crossMsg
	slabIdx     int
	slabScratch []crossMsg
}

// New returns an engine whose RNG is seeded with seed. Two engines built with
// the same seed and driven by the same code execute identical schedules.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
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

// Pending reports how many events are currently scheduled, including
// barrier-injected cross-LP slab messages not yet consumed. Stopped timers do
// not linger here: cancelling removes the heap entry immediately.
func (e *Engine) Pending() int { return len(e.events) + (len(e.slab) - e.slabIdx) }

// LP returns this engine's logical-process index within a Parallel run
// (0 for a standalone engine).
func (e *Engine) LP() int { return int(e.lp) }

// NextEventTime returns the timestamp of the earliest pending event — heap or
// cross-LP slab — and whether one exists.
func (e *Engine) NextEventTime() (Time, bool) {
	t := Time(0)
	ok := false
	if len(e.events) > 0 {
		t, ok = e.events[0].at, true
	}
	if e.slabIdx < len(e.slab) {
		if mt := e.slab[e.slabIdx].at; !ok || mt < t {
			t, ok = mt, true
		}
	}
	return t, ok
}

// ---- 4-ary heap of pointer-free key records ----
//
// A 4-ary layout halves the tree depth of a binary heap and keeps children in
// one cache line, which is where a discrete-event simulator spends its time.
// Children of i are 4i+1..4i+4; parent of i is (i-1)/4.

// allocSlot returns a free payload slot, recycling before growing.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slots = append(e.slots, eslot{})
	return int32(len(e.slots) - 1)
}

// freeSlot zeroes slot s (dropping callback/arg references for the GC) and
// recycles it.
func (e *Engine) freeSlot(s int32) {
	e.slots[s] = eslot{}
	e.free = append(e.free, s)
}

// setEvent writes key ev into heap position i, maintaining the payload's
// back-pointer.
func (e *Engine) setEvent(i int, ev event) {
	e.events[i] = ev
	e.slots[ev.slot].heap = int32(i)
}

// siftUp moves the event at slot i toward the root until ordered.
func (e *Engine) siftUp(i int) {
	ev := e.events[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&e.events[parent]) {
			break
		}
		e.setEvent(i, e.events[parent])
		i = parent
	}
	e.setEvent(i, ev)
}

// siftDown moves the event at slot i toward the leaves until ordered.
func (e *Engine) siftDown(i int) {
	n := len(e.events)
	ev := e.events[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.events[c].before(&e.events[best]) {
				best = c
			}
		}
		if !e.events[best].before(&ev) {
			break
		}
		e.setEvent(i, e.events[best])
		i = best
	}
	e.setEvent(i, ev)
}

// push inserts ev into the heap.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
}

// pop removes the earliest event, returning its timestamp and payload. The
// payload slot is recycled before the caller dispatches, so a callback that
// schedules immediately reuses the slot it just vacated.
func (e *Engine) pop() (Time, eslot) {
	top := e.events[0]
	n := len(e.events) - 1
	if n > 0 {
		e.setEvent(0, e.events[n])
	}
	e.events = e.events[:n] // keys hold no pointers; no need to zero
	if n > 1 {
		e.siftDown(0)
	}
	sl := e.slots[top.slot]
	if sl.tm != nil {
		sl.tm.slot = -1
	}
	e.freeSlot(top.slot)
	return top.at, sl
}

// remove deletes the event at heap position i (a cancelled timer's entry).
func (e *Engine) remove(i int) {
	s := e.events[i].slot
	if tm := e.slots[s].tm; tm != nil {
		tm.slot = -1
	}
	e.freeSlot(s)
	n := len(e.events) - 1
	moved := e.events[n]
	e.events = e.events[:n]
	if i < n {
		e.setEvent(i, moved)
		e.siftDown(i)
		e.siftUp(i)
	}
}

// schedule validates the timestamp, parks the payload in a slot, and pushes
// its key.
func (e *Engine) schedule(at Time, fn func(), h Handler, arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	s := e.allocSlot()
	sl := &e.slots[s]
	sl.fn, sl.h, sl.arg = fn, h, arg
	e.push(event{at: at, seq: e.seq, slot: s})
}

// Schedule runs fn at absolute time at. It panics if at precedes Now, since a
// causal model can never schedule into the past.
func (e *Engine) Schedule(at Time, fn func()) {
	e.schedule(at, fn, nil, nil)
}

// After runs fn d nanoseconds from now. A negative d panics via Schedule.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// ScheduleHandler runs h.OnEvent(e, arg) at absolute time at. Unlike
// Schedule, it allocates nothing when h and arg hold pointers — the typed
// path per-packet machinery (ports, QPs) uses on every hop.
func (e *Engine) ScheduleHandler(at Time, h Handler, arg any) {
	e.schedule(at, nil, h, arg)
}

// AfterHandler runs h.OnEvent(e, arg) d nanoseconds from now.
func (e *Engine) AfterHandler(d Time, h Handler, arg any) {
	e.ScheduleHandler(e.now+d, h, arg)
}

// Timer is a cancellable, re-armable scheduled callback. A timer owns at most
// one heap slot: Reset re-arms it in place and Stop removes it immediately,
// so arm/cancel churn (RoCE retransmission timers, DCQCN rate timers) neither
// allocates nor strands dead entries in the scheduler until their deadline.
// Construct with Engine.NewTimer (reusable across arms) or Engine.AfterTimer.
type Timer struct {
	eng   *Engine
	fn    func()
	slot  int32 // payload slot while armed, -1 otherwise
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
// pending, stopped, or already fired. A pending timer's heap slot is moved in
// place; no new entry is created.
func (t *Timer) Reset(d Time) {
	e := t.eng
	at := e.now + d
	if at < e.now {
		panic(fmt.Sprintf("sim: timer reset at %v before now %v", at, e.now))
	}
	t.fired = false
	e.seq++
	if t.slot >= 0 {
		i := int(e.slots[t.slot].heap)
		e.events[i].at = at
		e.events[i].seq = e.seq
		e.siftDown(i)
		e.siftUp(i)
		return
	}
	s := e.allocSlot()
	e.slots[s].tm = t
	t.slot = s
	e.push(event{at: at, seq: e.seq, slot: s})
}

// Stop cancels the timer if it is pending, removing its entry from the
// scheduler immediately. It reports whether the call prevented the callback
// from running.
func (t *Timer) Stop() bool {
	if t.slot < 0 {
		return false
	}
	t.eng.remove(int(t.eng.slots[t.slot].heap))
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
// Two fast paths keep the hot loop cheap. A cross-LP slab message earlier
// than the heap top dispatches straight from the slab — no heap traffic at
// all. A timer at the heap top dispatches in place: if its callback re-arms
// it (the dominant pattern for port serialization chains and QP pacers),
// Reset re-keys the existing entry and the fire costs one sift instead of a
// pop/push pair plus slot churn.
func (e *Engine) step() {
	if e.slabIdx < len(e.slab) {
		m := &e.slab[e.slabIdx]
		if len(e.events) == 0 || m.at < e.events[0].at ||
			(m.at == e.events[0].at && m.seq < e.events[0].seq) {
			e.slabIdx++
			e.now = m.at
			e.nRun++
			h, arg := m.h, m.arg
			*m = crossMsg{} // drop refs for the GC
			h.OnEvent(e, arg)
			return
		}
	}
	top := e.events[0]
	if tm := e.slots[top.slot].tm; tm != nil {
		e.now = top.at
		e.nRun++
		tm.fired = true
		tm.fn()
		if tm.slot == top.slot && tm.fired {
			// Neither Reset (clears fired; may recycle the same slot) nor
			// Stop (clears slot) ran in the callback: retire the entry. The
			// back-pointer finds it even if other heap traffic moved the key.
			e.remove(int(e.slots[top.slot].heap))
		}
		return
	}
	at, sl := e.pop()
	e.now = at
	e.nRun++
	if sl.h != nil {
		sl.h.OnEvent(e, sl.arg)
	} else {
		sl.fn()
	}
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
// satisfied it. This is Parallel.Run's contract on a single engine, where
// every event is a barrier.
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

// ScheduleRemote schedules h.OnEvent(dst, arg) at absolute time at on dst,
// which may be a different logical process of the same Parallel run. Calls
// targeting the local engine degrade to ScheduleHandler; cross-LP messages
// are appended to a single-producer outbox of the window's write parity and
// merged into dst's slab by dst's own worker at the start of the next window
// in a fixed (time, source LP, send order) total order, so results are
// independent of how many workers drive the run.
//
// The first message to a destination this window also records it in the
// parity's dirty list, which is what the coordinator transposes into
// per-destination merge work — no LP ever scans another LP's empty boxes.
//
// Conservative synchronization requires at to lie at or beyond the end of
// the current window; the network layer guarantees this by construction,
// since every cross-LP link's propagation delay is at least the lookahead.
func (e *Engine) ScheduleRemote(dst *Engine, at Time, h Handler, arg any) {
	if dst == e {
		e.ScheduleHandler(at, h, arg)
		return
	}
	if e.par == nil || dst.par != e.par {
		panic("sim: ScheduleRemote across engines that do not share a Parallel run")
	}
	if e.out[0] == nil {
		panic("sim: ScheduleRemote before Parallel.Finalize")
	}
	wp := e.par.wp
	d := dst.lp
	box := e.out[wp][d]
	if len(box) == 0 {
		e.dirty[wp] = append(e.dirty[wp], d)
	}
	if at < e.outMin[wp] {
		e.outMin[wp] = at
	}
	e.out[wp][d] = append(box, crossMsg{at: at, h: h, arg: arg})
}

// injectSlab hands this engine one window barrier's worth of inbound cross-LP
// messages, already sorted by the coordinator's canonical (timestamp, source
// LP, send order) rule. Each message takes the next local sequence number in
// that order — exactly the numbering the heap-insertion drain used to assign
// — and the batch is merged with any not-yet-consumed slab remainder.
//
// The merge only compares timestamps: every remainder entry survived at least
// one full window (its window consumed everything earlier), so its timestamp
// is at or beyond the window end that every new message's timestamp is also
// bounded below by, and its sequence number is older. Taking remainder
// entries first on timestamp ties is therefore (at, seq) order.
func (e *Engine) injectSlab(msgs []crossMsg) {
	for i := range msgs {
		e.seq++
		msgs[i].seq = e.seq
	}
	rem := e.slab[e.slabIdx:]
	if len(rem) == 0 {
		e.slab = append(e.slab[:0], msgs...)
		e.slabIdx = 0
		return
	}
	merged := e.slabScratch[:0]
	i, j := 0, 0
	for i < len(rem) && j < len(msgs) {
		if rem[i].at <= msgs[j].at {
			merged = append(merged, rem[i])
			i++
		} else {
			merged = append(merged, msgs[j])
			j++
		}
	}
	merged = append(merged, rem[i:]...)
	merged = append(merged, msgs[j:]...)
	for k := range rem {
		rem[k] = crossMsg{} // old backing array: drop refs for the GC
	}
	e.slabScratch = e.slab[:0]
	e.slab = merged
	e.slabIdx = 0
}
