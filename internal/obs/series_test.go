package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSeriesSampling(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	s := NewSeriesSet(eng, 10, 0)
	var counter float64
	s.Track("now", func() float64 { return float64(eng.Now()) })
	s.TrackDelta("delta", func() float64 { return counter })
	// The counter grows by 3 between every pair of samples.
	var bump func()
	bump = func() {
		counter += 3
		eng.Schedule(eng.Now()+10, bump)
	}
	eng.Schedule(5, bump)
	s.Start()
	eng.RunUntil(55)

	if s.Samples() != 5 {
		t.Fatalf("got %d samples, want 5", s.Samples())
	}
	now := s.Values("now")
	for i, want := range []float64{10, 20, 30, 40, 50} {
		if now[i] != want {
			t.Fatalf("now[%d] = %v, want %v", i, now[i], want)
		}
	}
	for i, d := range s.Values("delta") {
		if d != 3 {
			t.Fatalf("delta[%d] = %v, want 3", i, d)
		}
	}
	if got := s.Names(); len(got) != 2 || got[0] != "now" || got[1] != "delta" {
		t.Fatalf("names = %v", got)
	}

	s.Stop()
	eng.RunUntil(200)
	if s.Samples() != 5 {
		t.Fatalf("sampler kept ticking after Stop: %d samples", s.Samples())
	}
}

func TestSeriesDecimation(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	s := NewSeriesSet(eng, 10, 16)
	s.Track("now", func() float64 { return float64(eng.Now()) })
	s.Start()
	eng.RunUntil(165) // 16 ticks -> fills capacity -> decimate to 8, interval 20
	if s.Samples() != 8 || s.Interval() != 20 {
		t.Fatalf("after first fill: %d samples, interval %d (want 8, 20)", s.Samples(), s.Interval())
	}
	ts := s.Times()
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("time axis not increasing after decimation: %v", ts)
		}
	}
	// Surviving samples are the even-indexed originals: 10, 30, 50, ...
	if ts[0] != 10 || ts[1] != 30 {
		t.Fatalf("decimation kept wrong samples: %v", ts)
	}
	eng.RunUntil(2000)
	if s.Samples() >= 16 {
		t.Fatalf("series exceeded capacity: %d", s.Samples())
	}
}

func TestSeriesDecimationExactCapacity(t *testing.T) {
	t.Parallel()
	// Decimation triggers exactly when the sample count reaches capacity —
	// one tick earlier the set is still full-resolution.
	eng := sim.New(1)
	s := NewSeriesSet(eng, 10, 16)
	s.Track("now", func() float64 { return float64(eng.Now()) })
	s.Start()
	eng.RunUntil(155) // 15 ticks: one short of capacity
	if s.Samples() != 15 || s.Interval() != 10 {
		t.Fatalf("at capacity-1: %d samples, interval %d (want 15, 10)", s.Samples(), s.Interval())
	}
	eng.RunUntil(165) // the 16th tick fills capacity and decimates
	if s.Samples() != 8 || s.Interval() != 20 {
		t.Fatalf("at capacity: %d samples, interval %d (want 8, 20)", s.Samples(), s.Interval())
	}
}

func TestSeriesSingleSample(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	s := NewSeriesSet(eng, 10, 16)
	s.Track("v", func() float64 { return 7 })
	s.Start()
	eng.RunUntil(15) // exactly one tick
	s.Stop()
	if s.Samples() != 1 || s.Interval() != 10 {
		t.Fatalf("%d samples, interval %d (want 1, 10)", s.Samples(), s.Interval())
	}
	if vs := s.Values("v"); len(vs) != 1 || vs[0] != 7 {
		t.Fatalf("values = %v, want [7]", vs)
	}
	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if want := "t_ns,v\n10,7\n"; csv.String() != want {
		t.Fatalf("csv = %q, want %q", csv.String(), want)
	}
}

func TestSeriesRefillAfterDecimation(t *testing.T) {
	t.Parallel()
	// After the first decimation (8 samples @ interval 20), the set keeps
	// sampling on the doubled grid, refills to capacity, and decimates
	// again — interval 40, still the even-indexed survivors of the finer
	// grid, time axis strictly increasing throughout.
	eng := sim.New(1)
	s := NewSeriesSet(eng, 10, 16)
	s.Track("now", func() float64 { return float64(eng.Now()) })
	s.Start()
	eng.RunUntil(165) // first fill: decimate to 8 @ 20
	if s.Samples() != 8 || s.Interval() != 20 {
		t.Fatalf("after first decimation: %d samples, interval %d", s.Samples(), s.Interval())
	}
	// 8 more ticks at interval 20 (t=180..320) refill to 16 -> decimate.
	eng.RunUntil(325)
	if s.Samples() != 8 || s.Interval() != 40 {
		t.Fatalf("after refill: %d samples, interval %d (want 8, 40)", s.Samples(), s.Interval())
	}
	ts := s.Times()
	// Survivors of two decimations: every 4th original 10ns-grid sample
	// until the first decimation, then every other 20ns-grid sample.
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("time axis not increasing after refill decimation: %v", ts)
		}
	}
	if ts[0] != 10 || ts[1] != 50 {
		t.Fatalf("second decimation kept wrong samples: %v", ts)
	}
	vs := s.Values("now")
	for i := range vs {
		if vs[i] != float64(ts[i]) {
			t.Fatalf("column desynced from time axis at %d: t=%v v=%v", i, ts[i], vs[i])
		}
	}
}

func TestSeriesExports(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	s := NewSeriesSet(eng, 10, 0)
	s.Track("a", func() float64 { return 1.5 })
	s.Track("b", func() float64 { return float64(eng.Now()) })
	s.Start()
	eng.RunUntil(35)

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if lines[0] != "t_ns,a,b" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 1+3 {
		t.Fatalf("csv has %d rows, want 4:\n%s", len(lines), csv.String())
	}
	if lines[1] != "10,1.5,10" {
		t.Fatalf("csv row = %q", lines[1])
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	out := js.String()
	for _, want := range []string{`"interval_ns":10`, `"t":[10,20,30]`, `"a":[1.5,1.5,1.5]`, `"b":[10,20,30]`} {
		if !strings.Contains(out, want) {
			t.Fatalf("json missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesTrackAfterSamplingPanics(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	s := NewSeriesSet(eng, 10, 0)
	s.Track("a", func() float64 { return 0 })
	s.Start()
	eng.RunUntil(15)
	defer func() {
		if recover() == nil {
			t.Fatal("Track after sampling must panic")
		}
	}()
	s.Track("late", func() float64 { return 0 })
}
