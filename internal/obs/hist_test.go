package obs

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// Edge cases the main quantile/merge tests don't reach.

func TestHistogramEmptyQuantiles(t *testing.T) {
	t.Parallel()
	var h Histogram
	for _, q := range []float64{0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram q=%v = %d, want 0", q, got)
		}
	}
	s := h.Summary()
	if s.Count != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 || s.P999 != 0 {
		t.Fatalf("empty summary not all-zero: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary must still render")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	t.Parallel()
	var h Histogram
	h.Observe(12345)
	for _, q := range []float64{0.001, 0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got != 12345 {
			t.Fatalf("single-sample q=%v = %d, want the sample itself", q, got)
		}
	}
	s := h.Summary()
	if s.Count != 1 || s.Mean != 12345 || s.Min != 12345 || s.Max != 12345 {
		t.Fatalf("single-sample summary: %+v", s)
	}
}

// TestHistogramOverflowBucketP999 drives values into the top octaves (beyond
// 2^60) and checks the quantiles stay clamped to the true observed range
// rather than reporting a bucket upper bound past max.
func TestHistogramOverflowBucketP999(t *testing.T) {
	t.Parallel()
	var h Histogram
	const big = int64(1) << 62
	for i := 0; i < 999; i++ {
		h.Observe(1000)
	}
	h.Observe(big)
	s := h.Summary()
	if s.Max != big {
		t.Fatalf("max = %d, want %d", s.Max, big)
	}
	if s.P999 > big {
		t.Fatalf("p999 %d exceeds the observed max %d", s.P999, big)
	}
	// Quantiles report bucket upper bounds: within the 1/2^histSubBits
	// relative error of the true 1000.
	if s.P50 < 1000 || s.P50 > 1000+1000/histSub {
		t.Fatalf("p50 = %d, want 1000 within bucket error", s.P50)
	}
	// A histogram of only huge values must clamp every quantile to [min, max].
	var g Histogram
	g.Observe(big)
	g.Observe(big + 1)
	if q := g.Quantile(0.999); q < big || q > big+1 {
		t.Fatalf("overflow-bucket q999 = %d outside [%d, %d]", q, big, big+1)
	}
}

func TestHistogramMergeDisjointShards(t *testing.T) {
	t.Parallel()
	// Two shards with disjoint value ranges, as per-QP latency histograms are.
	var lo, hi, merged Histogram
	for i := int64(1); i <= 100; i++ {
		lo.Observe(i)
		merged.Observe(i)
	}
	for i := int64(1 << 20); i < 1<<20+100; i++ {
		hi.Observe(i)
		merged.Observe(i)
	}
	var a Histogram
	a.Merge(&lo)
	a.Merge(&hi)
	// Merge in the opposite order: must be identical (commutative).
	var b Histogram
	b.Merge(&hi)
	b.Merge(&lo)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("merge is not commutative")
	}
	if a.Summary() != merged.Summary() {
		t.Fatalf("merged summary %+v differs from combined-stream summary %+v", a.Summary(), merged.Summary())
	}
	if a.Count() != 200 || a.Summary().Min != 1 || a.Summary().Max != 1<<20+99 {
		t.Fatalf("merged bounds wrong: %+v", a.Summary())
	}
	// Merging an empty or nil histogram is a no-op.
	var before Histogram
	before.Merge(&a)
	a.Merge(nil)
	var empty Histogram
	a.Merge(&empty)
	if !reflect.DeepEqual(a, before) {
		t.Fatal("nil/empty merge changed the histogram")
	}
}

// TestHistogramGrowsInOctaves pins the bucket sizing rule: a histogram
// holds whole octaves up to the highest bucket it observed or merged, so
// its length depends only on that maximum index and never on the order in
// which shards of different lengths are merged.
func TestHistogramGrowsInOctaves(t *testing.T) {
	t.Parallel()
	var zero Histogram
	if zero.buckets != nil {
		t.Fatal("zero histogram must hold no buckets")
	}
	want := func(v int64) int { return (histIndex(uint64(v))/histSub + 1) * histSub }
	var h Histogram
	for _, v := range []int64{0, 3, 100, 5000, 1 << 30} {
		h.Observe(v)
		if len(h.buckets) != want(v) || len(h.buckets)%histSub != 0 {
			t.Fatalf("after Observe(%d): %d buckets, want %d", v, len(h.buckets), want(v))
		}
	}
	h.Observe(7)
	if len(h.buckets) != want(1<<30) {
		t.Fatal("a smaller value shrank or regrew the buckets")
	}

	// Three shards of different lengths, merged in every order.
	shards := make([]Histogram, 3)
	for i, vs := range [][]int64{{1, 2, 3}, {900, 1 << 12}, {1 << 40, 17}} {
		for _, v := range vs {
			shards[i].Observe(v)
		}
	}
	var ref Histogram
	for _, p := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		var m Histogram
		for _, i := range p {
			m.Merge(&shards[i])
		}
		if len(m.buckets) != want(1<<40) {
			t.Fatalf("order %v: %d buckets, want %d", p, len(m.buckets), want(1<<40))
		}
		if p[0] == 0 && p[1] == 1 {
			ref = m
			continue
		}
		if !reflect.DeepEqual(m, ref) {
			t.Fatalf("order %v: merge is not commutative", p)
		}
	}
}

// TestGroupReportHistIsCopy checks that GroupReport.Hist hands out a
// histogram that shares no buckets with the report.
func TestGroupReportHistIsCopy(t *testing.T) {
	t.Parallel()
	gs := NewGroupStats(sim.Millisecond)
	c := gs.Cell(GroupAddrBase + 1)
	c.Message(10, 5000)
	c.Message(20, 7000)
	r := gs.Snapshot()[0]
	var want Histogram
	want.Merge(&r.hist)

	h := r.Hist()
	h.Observe(5000) // lands in an existing bucket
	h.Observe(1 << 20)
	h.Merge(&want)
	if !reflect.DeepEqual(r.hist, want) {
		t.Fatal("mutating the value Hist returned changed the report's histogram")
	}
	if r.Latency != want.Summary() {
		t.Fatalf("report latency %+v, want %+v", r.Latency, want.Summary())
	}
}
