package obs

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

func TestHistIndexRoundTrip(t *testing.T) {
	t.Parallel()
	for _, v := range []uint64{0, 1, 7, 8, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1<<62 - 1, 1 << 62} {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		hi := histValue(i)
		if uint64(hi) < v {
			t.Fatalf("histValue(%d) = %d below value %d it must bound", i, hi, v)
		}
		// Relative bucket width is bounded by 1/2^subBits.
		if v >= 2*histSub {
			lo := histValue(i-1) + 1
			if width := uint64(hi) - uint64(lo); width > v>>histSubBits {
				t.Fatalf("bucket %d for %d too wide: [%d,%d]", i, v, lo, hi)
			}
		}
	}
	// Indexes are monotone in v.
	prev := -1
	for v := uint64(0); v < 1<<16; v += 7 {
		if i := histIndex(v); i < prev {
			t.Fatalf("histIndex not monotone at %d", v)
		} else {
			prev = i
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	t.Parallel()
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 0, 100000)
	for i := 0; i < 100000; i++ {
		v := int64(rng.ExpFloat64() * 50000) // latency-shaped distribution
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := h.Quantile(q)
		// Log-bucketed error bound: within one sub-bucket (~12.5%) plus slack
		// for rank rounding.
		lo, hi := float64(exact)*0.85, float64(exact)*1.15
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("q%v: got %d, exact %d (allowed [%v,%v])", q, got, exact, lo, hi)
		}
	}
	if h.Max() != vals[len(vals)-1] {
		t.Errorf("Max = %d, want %d", h.Max(), vals[len(vals)-1])
	}
	s := h.Summary()
	if s.Count != 100000 || s.Min != vals[0] || s.Max != h.Max() {
		t.Errorf("summary mismatch: %+v", s)
	}
}

func TestHistogramMergeEqualsCombined(t *testing.T) {
	t.Parallel()
	var a, b, all Histogram
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 20))
		all.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	var m Histogram
	m.Merge(&a)
	m.Merge(&b)
	m.Merge(nil) // no-op
	if !reflect.DeepEqual(m, all) {
		t.Fatal("merged histogram differs from combined observation")
	}
	// Merge order must not matter.
	var m2 Histogram
	m2.Merge(&b)
	m2.Merge(&a)
	if !reflect.DeepEqual(m2, m) {
		t.Fatal("merge is order-dependent")
	}
}

// TestFabricNilSafeAndTotals: a nil Fabric observes nothing without
// panicking, and a live one totals every observed queue depth.
func TestFabricNilSafeAndTotals(t *testing.T) {
	t.Parallel()
	var nilFab *Fabric
	nilFab.ObserveQueue(64) // must not panic
	if q := nilFab.QueueDepth(); q.Count != 0 {
		t.Fatalf("nil fabric queue depth = %+v, want empty", q)
	}

	f := NewFabric()
	f.ObserveQueue(4096)
	f.ObserveQueue(64)
	f.ObserveQueue(1064)
	if q := f.QueueDepth(); q.Count != 3 || q.Min != 64 || q.Max != 4096 || q.Mean != (4096+64+1064)/3 {
		t.Fatalf("QueueDepth = %+v, want 3 samples in [64, 4096]", q)
	}
}

func TestTracerNilOn(t *testing.T) {
	t.Parallel()
	var tr *Tracer
	if tr.On() {
		t.Fatal("nil tracer must report off")
	}
}

func TestRecorderCanonicalOrder(t *testing.T) {
	t.Parallel()
	r := NewRecorder(1 << 12)
	// Register in a fixed order; record interleaved across devices.
	t0 := r.NewTracer("s0")
	t1 := r.NewTracer("h0")
	t1.Record(20, KDeliver, RNone, -1, 0, 1, 2, 0, 0, 5, 9, 100, 64)
	t0.Record(10, KEnqueue, RNone, 0, 0, 1, 2, 0, 0, 5, 9, 64, 64)
	t0.Record(20, KDequeue, RNone, 0, 0, 1, 2, 0, 0, 5, 9, 0, 64)
	t1.Record(5, KDrop, RLoss, -1, 0, 1, 2, 0, 0, 6, 9, 0, 64) // recorded later, earlier time
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	// Canonical order: (At, Dev, record order).
	want := []struct {
		at  sim.Time
		dev uint32
		k   Kind
	}{
		{5, 1, KDrop}, {10, 0, KEnqueue}, {20, 0, KDequeue}, {20, 1, KDeliver},
	}
	for i, w := range want {
		if evs[i].At != w.at || evs[i].Dev != w.dev || evs[i].Kind != w.k {
			t.Fatalf("event %d = %+v, want at=%d dev=%d kind=%v", i, evs[i], w.at, w.dev, w.k)
		}
	}
	if r.Lost() != 0 {
		t.Fatalf("Lost = %d, want 0", r.Lost())
	}
}

func TestRecorderRingOverwrite(t *testing.T) {
	t.Parallel()
	r := NewRecorder(1024) // floor capacity
	tr := r.NewTracer("d")
	const total = 3000
	for i := 0; i < total; i++ {
		tr.Record(sim.Time(i), KEnqueue, RNone, 0, 0, 0, 0, 0, 0, 0, 0, int64(i), 0)
	}
	evs := r.Events()
	if len(evs) != 1024 {
		t.Fatalf("kept %d events, want 1024", len(evs))
	}
	// The recorder keeps the most recent history.
	if evs[0].A != total-1024 || evs[len(evs)-1].A != total-1 {
		t.Fatalf("window [%d,%d], want [%d,%d]", evs[0].A, evs[len(evs)-1].A, total-1024, total-1)
	}
	if r.Lost() != total-1024 {
		t.Fatalf("Lost = %d, want %d", r.Lost(), total-1024)
	}
}

func TestRecorderEventsUntil(t *testing.T) {
	t.Parallel()
	r := NewRecorder(1 << 12)
	tr := r.NewTracer("d")
	for i := 0; i < 10; i++ {
		tr.Record(sim.Time(i*10), KEnqueue, RNone, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	if got := len(r.EventsUntil(45)); got != 5 {
		t.Fatalf("EventsUntil(45) kept %d, want 5", got)
	}
}

// TestRecorderExactCapacity: a capacity that is not a power of two keeps
// exactly that many of the newest events, in canonical order, and Lost
// counts the rest.
func TestRecorderExactCapacity(t *testing.T) {
	t.Parallel()
	const capacity, total = 3000, 5000
	r := NewRecorder(capacity)
	trs := []*Tracer{r.NewTracer("d0"), r.NewTracer("d1")}
	for i := 0; i < total; i++ {
		// Four events per instant, two per device, the higher device first.
		trs[1-i%4/2].Record(sim.Time(i/4), KEnqueue, RNone, 0, 0, 0, 0, 0, 0, 0, 0, int64(i), 0)
	}
	evs := r.Events()
	if len(evs) != capacity {
		t.Fatalf("kept %d events, want %d", len(evs), capacity)
	}
	if r.Lost() != total-capacity {
		t.Fatalf("Lost = %d, want %d", r.Lost(), total-capacity)
	}
	kept := make(map[int64]bool)
	for i, e := range evs {
		if e.A < total-capacity {
			t.Fatalf("event %d (A=%d) is older than the newest %d", i, e.A, capacity)
		}
		kept[e.A] = true
		if i == 0 {
			continue
		}
		p := evs[i-1]
		if p.At > e.At || p.At == e.At && (p.Dev > e.Dev || p.Dev == e.Dev && p.A > e.A) {
			t.Fatalf("events %d, %d out of (At, Dev, record) order: %+v then %+v", i-1, i, p, e)
		}
	}
	if len(kept) != capacity {
		t.Fatalf("kept %d distinct events, want %d", len(kept), capacity)
	}
}

// TestRecorderObserverSeesEverything: the attached observer sees every
// recorded event, in record order, even after the ring overwrites them.
func TestRecorderObserverSeesEverything(t *testing.T) {
	t.Parallel()
	const total = 5000
	r := NewRecorder(1024)
	tr := r.NewTracer("d")
	var seen int64
	r.Attach(func(e *Event) {
		if e.A != seen {
			t.Fatalf("observer saw event %d as number %d", e.A, seen)
		}
		seen++
	})
	for i := 0; i < total; i++ {
		tr.Record(sim.Time(i), KEnqueue, RNone, 0, 0, 0, 0, 0, 0, 0, 0, int64(i), 0)
	}
	if seen != total {
		t.Fatalf("observer saw %d events, recorded %d", seen, total)
	}
	if r.Lost() != total-1024 {
		t.Fatalf("Lost = %d, want %d", r.Lost(), total-1024)
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	t.Parallel()
	r := NewRecorder(1 << 12)
	tr := r.NewTracer("d")
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(1, KEnqueue, RNone, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
	var h Histogram
	allocs = testing.AllocsPerRun(1000, func() { h.Observe(12345) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", allocs)
	}
}

func TestExportFormats(t *testing.T) {
	t.Parallel()
	r := NewRecorder(1 << 12)
	tr := r.NewTracer("s3")
	tr.Record(1500, KDrop, RQueueLimit, 2, 0, 0x0A000001, 0xE0000003, 3, 1, 42, 7, 81920, 1064)
	evs := r.Events()

	var j bytes.Buffer
	if err := r.WriteJSONL(&j, evs); err != nil {
		t.Fatal(err)
	}
	want := `{"t":1500,"dev":"s3","port":2,"kind":"DROP","reason":"qlimit","pt":"DATA","src":"10.0.0.1","dst":"224.0.0.3","sqp":3,"dqp":1,"psn":42,"msg":7,"a":81920,"b":1064}` + "\n"
	if j.String() != want {
		t.Fatalf("JSONL:\n got %q\nwant %q", j.String(), want)
	}
}

func TestKindReasonNames(t *testing.T) {
	t.Parallel()
	if len(kindNames) != int(numKinds) {
		t.Fatalf("kindNames has %d entries, want %d", len(kindNames), numKinds)
	}
	if len(reasonNames) != int(numReasons) {
		t.Fatalf("reasonNames has %d entries, want %d", len(reasonNames), numReasons)
	}
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v,%v", k.String(), got, ok)
		}
	}
	for r := RQueueLimit; r < numReasons; r++ {
		got, ok := ReasonByName(r.String())
		if !ok || got != r {
			t.Fatalf("ReasonByName(%q) = %v,%v", r.String(), got, ok)
		}
	}
}

func BenchmarkTracerRecord(b *testing.B) {
	r := NewRecorder(1 << 16)
	tr := r.NewTracer("d")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(sim.Time(i), KEnqueue, RNone, 0, 0, 1, 2, 3, 4, uint64(i), uint64(i), 64, 64)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func TestParseAddr(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		s    string
		want uint32
		ok   bool
	}{
		{"10.0.0.1", 0x0A000001, true},
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"224.0.0.3", 0xE0000003, true},
		{"01.2.3.4", 0, false},
		{"1.2.3.004", 0, false},
		{"000000001.0.0.0", 0, false},
		{"1.00.2.3", 0, false},
		{"256.0.0.1", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"1..3.4", 0, false},
		{"1.2.3.4.", 0, false},
		{"+1.2.3.4", 0, false},
		{"", 0, false},
	} {
		got, ok := ParseAddr(c.s)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseAddr(%q) = %#x, %v; want %#x, %v", c.s, got, ok, c.want, c.ok)
		}
	}
}

// FuzzParseAddr: ParseAddr accepts exactly the strings AddrString emits,
// and inverts it on them.
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{"10.0.0.1", "224.0.0.3", "0.0.0.0", "255.255.255.255",
		"01.2.3.4", "1.2.3.004", "000000001.0.0.0", "256.1.1.1", "1.2.3", "1.2.3.4.5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, ok := ParseAddr(s)
		if canon := AddrString(v); ok != (canon == s) {
			t.Fatalf("ParseAddr(%q) = %#x, %v, but AddrString(%#x) = %q", s, v, ok, v, canon)
		}
	})
}
