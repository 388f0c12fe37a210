package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineSchedule measures raw event throughput: the budget every
// packet-level experiment spends.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if i%1024 == 0 {
			e.Run(MaxTime, nil)
		}
	}
	e.Run(MaxTime, nil)
}

// BenchmarkEngineChained measures the self-scheduling pattern ports and
// QPs use (each event schedules the next).
func BenchmarkEngineChained(b *testing.B) {
	e := New(1)
	n := 0
	var next func()
	next = func() {
		n++
		if n < b.N {
			e.After(10, next)
		}
	}
	b.ReportAllocs()
	e.After(10, next)
	e.Run(MaxTime, nil)
}

// BenchmarkTimerChurn measures arm/cancel cycles (RTO management).
func BenchmarkTimerChurn(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := e.AfterTimer(1000, func() {})
		t.Stop()
		if i%4096 == 0 {
			e.Run(MaxTime, nil)
		}
	}
	e.Run(MaxTime, nil)
}

// BenchmarkTimerReset measures the re-armable path QPs use per ACK: one timer,
// endlessly re-armed in place. Should be allocation-free.
func BenchmarkTimerReset(b *testing.B) {
	e := New(1)
	t := e.NewTimer(func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Reset(1000)
	}
	t.Stop()
}

// BenchmarkTimerRearmDense measures the dominant pattern of a busy fabric:
// hundreds of port timers, each re-arming itself 100-380 ns ahead from its
// own callback (simnet's rxT chain), so nearly every pending entry lies
// within the next microsecond. One op is one fire plus its re-arm.
func BenchmarkTimerRearmDense(b *testing.B) {
	const timers = 448
	e := New(1)
	rng := rand.New(rand.NewSource(1))
	gaps := make([]Time, 1024)
	for i := range gaps {
		gaps[i] = 100 + Time(rng.Intn(281))
	}
	fired := 0
	for i := 0; i < timers; i++ {
		var tm *Timer
		tm = e.NewTimer(func() {
			fired++
			if fired < b.N {
				tm.Reset(gaps[fired%len(gaps)])
			}
		})
		tm.Reset(gaps[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(MaxTime, nil)
}
