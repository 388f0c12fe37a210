package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// refQueue is the reference model the calendar queue is checked against: a
// map of pending entries, each keyed by (at, seq), whose minimum is found by
// a linear scan. It numbers arms itself, one seq per Schedule or Reset, as
// the engine does.
type refQueue struct {
	t       *testing.T
	seq     uint64
	pending map[int]refKey
}

type refKey struct {
	at  Time
	seq uint64
}

func (a refKey) before(b refKey) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func newRefQueue(t *testing.T) *refQueue {
	return &refQueue{t: t, pending: make(map[int]refKey)}
}

// arm records id as (re-)armed at at with the next seq.
func (r *refQueue) arm(id int, at Time) {
	r.seq++
	r.pending[id] = refKey{at, r.seq}
}

// min returns the pending id the engine must run next, or -1.
func (r *refQueue) min() int {
	best := -1
	for id, k := range r.pending {
		if best < 0 || k.before(r.pending[best]) {
			best = id
		}
	}
	return best
}

// fire checks that id is the reference minimum and runs at the engine's
// clock, then retires it.
func (r *refQueue) fire(e *Engine, id int) {
	r.t.Helper()
	want := r.min()
	if id != want {
		r.t.Fatalf("at %v: ran entry %d %+v, reference minimum is %d %+v",
			e.Now(), id, r.pending[id], want, r.pending[want])
	}
	if k := r.pending[id]; e.Now() != k.at {
		r.t.Fatalf("entry %d ran at %v, armed for %v", id, e.Now(), k.at)
	}
	delete(r.pending, id)
}

// check compares the engine's pending count and next event time with the
// reference.
func (r *refQueue) check(e *Engine) {
	r.t.Helper()
	if e.Pending() != len(r.pending) {
		r.t.Fatalf("at %v: pending = %d, reference %d", e.Now(), e.Pending(), len(r.pending))
	}
	at, ok := e.NextEventTime()
	if id := r.min(); ok != (id >= 0) || (ok && at != r.pending[id].at) {
		r.t.Fatalf("at %v: NextEventTime = %v, %v; reference minimum %+v", e.Now(), at, ok, r.pending[id])
	}
}

// refDelay draws a delay from a mix that exercises every calendar path:
// same-nanosecond ties, the dense sub-bucket and near-future bands, gaps of
// more than one bucket cycle, and second-scale timers.
func refDelay(rng *rand.Rand) Time {
	switch rng.Intn(10) {
	case 0, 1:
		return 0
	case 2, 3, 4:
		return Time(rng.Intn(16))
	case 5, 6:
		return Time(rng.Intn(1000))
	case 7:
		return 2*Microsecond + Time(rng.Intn(200_000))
	case 8:
		return Time(rng.Int63n(int64(Millisecond)))
	default:
		return Second + Time(rng.Int63n(int64(2*Second)))
	}
}

// TestCalendarMatchesReference drives random sequences of Schedule,
// Timer.Reset/Stop, re-arms and scheduling from inside callbacks, bursts
// that grow the calendar, Run slices and RunUntil jumps, and checks every
// execution against the reference (at, seq) order. Each seed runs as its
// own parallel subtest.
func TestCalendarMatchesReference(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkCalendarReference(t, seed)
		})
	}
}

// checkCalendarReference is one seed of TestCalendarMatchesReference.
func checkCalendarReference(t *testing.T, seed int64) {
	e := New(seed)
	rng := rand.New(rand.NewSource(seed))
	ref := newRefQueue(t)
	const nTimers = 24
	budget := 5000 // arms left; callbacks stop arming when it runs out
	nextID := nTimers
	var op func()
	closure := func(id int) func() {
		return func() {
			ref.fire(e, id)
			if rng.Intn(3) == 0 {
				op()
			}
		}
	}
	timers := make([]*Timer, nTimers)
	for i := range timers {
		i := i
		timers[i] = e.NewTimer(func() {
			ref.fire(e, i)
			if budget > 0 && rng.Intn(2) == 0 {
				budget--
				d := refDelay(rng)
				ref.arm(i, e.Now()+d)
				timers[i].Reset(d) // re-arm from its own callback
			}
			if rng.Intn(3) == 0 {
				op()
			}
		})
	}
	op = func() {
		if budget <= 0 {
			return
		}
		budget--
		switch rng.Intn(7) {
		case 0, 1, 2:
			at := e.Now() + refDelay(rng)
			ref.arm(nextID, at)
			e.Schedule(at, closure(nextID))
			nextID++
		case 3, 4:
			i, d := rng.Intn(nTimers), refDelay(rng)
			ref.arm(i, e.Now()+d)
			timers[i].Reset(d)
		case 5:
			i := rng.Intn(nTimers)
			_, armed := ref.pending[i]
			delete(ref.pending, i)
			if timers[i].Stop() != armed {
				t.Fatalf("timer %d Stop = %v, reference armed %v", i, !armed, armed)
			}
		case 6: // a burst at one or a few instants grows the calendar
			base := e.Now() + refDelay(rng)
			for k := rng.Intn(300); k > 0 && budget > 0; k-- {
				budget--
				at := base + Time(rng.Intn(4))*Time(rng.Intn(64))
				ref.arm(nextID, at)
				e.Schedule(at, closure(nextID))
				nextID++
			}
		}
	}
	for round := 0; round < 400; round++ {
		for k := rng.Intn(6); k >= 0; k-- {
			op()
		}
		ref.check(e)
		if rng.Intn(4) == 0 {
			to := e.Now() + refDelay(rng)
			e.RunUntil(to)
			if e.Now() != to {
				t.Fatalf("RunUntil(%v) left the clock at %v", to, e.Now())
			}
		} else {
			n := rng.Intn(50)
			e.Run(MaxTime, func() bool { n--; return n < 0 })
		}
		ref.check(e)
	}
	budget = 0
	e.Run(MaxTime, nil)
	ref.check(e)
	if len(ref.pending) != 0 {
		t.Fatalf("seed %d: %d reference entries never ran", seed, len(ref.pending))
	}
}

// TestCalendarCursorMovesBack is the regression for a cursor that only moves
// forward: peeking a far event parks the scan cursor on its day, so an
// earlier insert must pull the cursor back, or once that insert is popped the
// next scan starts past every nearer entry.
func TestCalendarCursorMovesBack(t *testing.T) {
	t.Parallel()
	e := New(1)
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.Schedule(10*Second, rec)
	if at, _ := e.NextEventTime(); at != 10*Second {
		t.Fatalf("peek = %v, want 10s", at)
	}
	e.Schedule(100, rec)
	e.Run(MaxTime, func() bool { return len(got) == 1 })
	e.Schedule(200, rec)
	e.Schedule(150, rec)
	e.Run(MaxTime, nil)
	want := []Time{100, 150, 200, 10 * Second}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

// TestEngineSlotSize guards the calendar arena's entry size, paid once per
// pending event: a slot holds its key, its links and one payload pointer of
// each kind (closure or timer), 40 bytes on 64-bit hosts.
func TestEngineSlotSize(t *testing.T) {
	t.Parallel()
	if sz := unsafe.Sizeof(eslot{}); sz > 40 {
		t.Fatalf("eslot is %d bytes, want <= 40", sz)
	}
}
