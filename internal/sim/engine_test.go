package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	t.Parallel()
	e := New(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run(MaxTime, nil)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOAtSameTimestamp(t *testing.T) {
	t.Parallel()
	e := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func() { got = append(got, i) })
	}
	e.Run(MaxTime, nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events reordered at %d: %v", i, got[:i+1])
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	t.Parallel()
	e := New(1)
	e.Schedule(100, func() {})
	e.Run(MaxTime, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestAfterNested(t *testing.T) {
	t.Parallel()
	e := New(1)
	var at []Time
	e.After(10, func() {
		at = append(at, e.Now())
		e.After(5, func() { at = append(at, e.Now()) })
	})
	e.Run(MaxTime, nil)
	if len(at) != 2 || at[0] != 10 || at[1] != 15 {
		t.Fatalf("nested After times = %v", at)
	}
}

func TestRunUntil(t *testing.T) {
	t.Parallel()
	e := New(1)
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

// TestRunOutcomes pins Engine.Run's contract: pred is checked before the
// first event and after every event, the event past the limit is never
// executed, and an empty queue is Quiescent.
func TestRunOutcomes(t *testing.T) {
	t.Parallel()
	t.Run("engine", func(t *testing.T) {
		e := New(1)
		ran := 0
		for _, at := range []Time{10, 20, 30, 40} {
			e.Schedule(at, func() { ran++ })
		}
		if out := e.Run(MaxTime, func() bool { return true }); out != Done || ran != 0 {
			t.Fatalf("pred true up front: %v after %d events, want done after 0", out, ran)
		}
		if out := e.Run(1000, func() bool { return ran == 2 }); out != Done || ran != 2 {
			t.Fatalf("Run = %v after %d events, want done after 2", out, ran)
		}
		if e.Now() != 20 {
			t.Fatalf("done: clock = %v, want 20 (the satisfying event), not the limit", e.Now())
		}
		if out := e.Run(35, func() bool { return false }); out != Horizon || ran != 3 {
			t.Fatalf("Run = %v after %d events, want horizon after 3", out, ran)
		}
		if e.Now() != 30 || e.Pending() != 1 {
			t.Fatalf("horizon: clock = %v pending = %d, want 30 and the 40ns event unexecuted", e.Now(), e.Pending())
		}
		if out := e.Run(40, nil); out != Quiescent || ran != 4 || e.Now() != 40 {
			t.Fatalf("Run = %v after %d events at %v, want quiescent after 4 at 40ns", out, ran, e.Now())
		}
		if out := e.Run(MaxTime, nil); out != Quiescent {
			t.Fatalf("empty queue: %v, want quiescent", out)
		}
	})
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	t.Parallel()
	e := New(1)
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("clock = %v, want 1000", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	t.Parallel()
	e := New(1)
	fired := false
	tm := e.AfterTimer(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	e.Run(MaxTime, nil)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
}

func TestTimerFires(t *testing.T) {
	t.Parallel()
	e := New(1)
	fired := false
	tm := e.AfterTimer(10, func() { fired = true })
	e.Run(MaxTime, nil)
	if !fired || !tm.Fired() {
		t.Fatal("timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

// Regression: repeatedly arming and stopping a timer must not grow the
// scheduler. The old implementation left cancelled closures in the heap until
// their deadline, so RTO churn (re-armed on every ACK) accumulated garbage.
func TestTimerChurnDoesNotGrowPending(t *testing.T) {
	t.Parallel()
	e := New(1)
	tm := e.NewTimer(func() {})
	for i := 0; i < 10000; i++ {
		tm.Reset(1000)
		tm.Stop()
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after arm/stop churn, want 0", e.Pending())
	}
	for i := 0; i < 10000; i++ {
		tm.Reset(1000)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after repeated Reset, want 1", e.Pending())
	}
}

func TestTimerReset(t *testing.T) {
	t.Parallel()
	e := New(1)
	var firedAt []Time
	tm := e.NewTimer(func() { firedAt = append(firedAt, e.Now()) })
	if tm.Pending() {
		t.Fatal("new timer reports pending")
	}
	tm.Reset(10)
	tm.Reset(30) // re-arm while pending: deadline moves, no duplicate fire
	e.Run(MaxTime, nil)
	if len(firedAt) != 1 || firedAt[0] != 30 {
		t.Fatalf("firedAt = %v, want [30]", firedAt)
	}
	tm.Reset(10) // re-arm after firing
	if tm.Fired() {
		t.Fatal("Fired() still true after Reset")
	}
	e.Run(MaxTime, nil)
	if len(firedAt) != 2 || firedAt[1] != 40 {
		t.Fatalf("firedAt = %v, want [30 40]", firedAt)
	}
}

// Reset while pending must keep FIFO fairness: the re-armed timer gets a fresh
// sequence number, so it runs after events already scheduled at the same
// instant — exactly as if it had been cancelled and re-scheduled.
func TestTimerResetReordersAfterPeers(t *testing.T) {
	t.Parallel()
	e := New(1)
	var got []string
	tm := e.NewTimer(func() { got = append(got, "timer") })
	tm.Reset(10)
	e.Schedule(10, func() { got = append(got, "fn") })
	tm.Reset(10)
	e.Run(MaxTime, nil)
	if len(got) != 2 || got[0] != "fn" || got[1] != "timer" {
		t.Fatalf("order = %v, want [fn timer]", got)
	}
}

// Closure and timer events scheduled at one instant interleave in schedule
// order — the two payload kinds share one sequence space.
func TestMixedDispatchFIFO(t *testing.T) {
	t.Parallel()
	e := New(1)
	var got []string
	e.Schedule(5, func() { got = append(got, "fn1") })
	tm := e.NewTimer(func() { got = append(got, "tm") })
	tm.Reset(5)
	e.Schedule(5, func() { got = append(got, "fn2") })
	e.Run(MaxTime, nil)
	if len(got) != 3 || got[0] != "fn1" || got[1] != "tm" || got[2] != "fn2" {
		t.Fatalf("closure/timer order = %v", got)
	}
}

func TestDeterminismAcrossSeededRuns(t *testing.T) {
	t.Parallel()
	run := func(seed int64) []Time {
		e := New(seed)
		var order []Time
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			at := Time(rng.Int63n(10000))
			e.Schedule(at, func() {
				order = append(order, e.Now())
				// Random follow-up work exercises the engine's RNG too.
				if e.Rand().Intn(4) == 0 {
					e.After(Time(e.Rand().Int63n(100)), func() {
						order = append(order, e.Now())
					})
				}
			})
		}
		e.Run(MaxTime, nil)
		return order
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events always execute in non-decreasing timestamp order no matter
// the insertion order.
func TestEventOrderProperty(t *testing.T) {
	t.Parallel()
	f := func(times []uint16) bool {
		e := New(1)
		var got []Time
		for _, at := range times {
			at := Time(at)
			e.Schedule(at, func() { got = append(got, at) })
		}
		e.Run(MaxTime, nil)
		if len(got) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	t.Parallel()
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{12 * Microsecond, "12.00us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
