package obs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

const g0 = GroupAddrBase // first group id

// TestGroupStatsTotals: bookings over eight milliseconds sum into one
// report per group with one goodput bucket per millisecond.
func TestGroupStatsTotals(t *testing.T) {
	t.Parallel()
	gs := NewGroupStats(0)
	for i := 0; i < 8; i++ {
		c := gs.Cell(g0)
		c.Packet(sim.Time(i)*sim.Millisecond, 1000)
		c.Message(sim.Time(i)*sim.Millisecond, int64(1000+i))
		gs.DropFrame(0, g0, sim.Time(i)*sim.Millisecond, 64)
		c.Retransmit(sim.Time(i)*sim.Millisecond, 256)
	}
	snap := gs.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d reports, want 1", len(snap))
	}
	r := snap[0]
	if r.DeliveredBytes != 8000 || r.Pkts != 8 || r.Messages != 8 ||
		r.DroppedPkts != 8 || r.DroppedBytes != 8*64 ||
		r.RetransPkts != 8 || r.RetransBytes != 8*256 {
		t.Fatalf("totals wrong: %+v", r)
	}
	if len(r.Series) != 8 {
		t.Fatalf("series: got %d buckets, want 8 (one per ms at %v buckets)", len(r.Series), r.Bucket)
	}
}

// TestGroupStatsNilSafe: every disabled-path receiver is a no-op, not a
// panic — the contract the hot-path call sites rely on.
func TestGroupStatsNilSafe(t *testing.T) {
	t.Parallel()
	var gs *GroupStats
	if gs.Cell(g0) != nil || gs.Snapshot() != nil {
		t.Fatal("nil *GroupStats not inert")
	}
	gs.DropFrame(0, g0, 0, 64) // must not panic
	if _, ok := gs.ObjectiveFor(g0); ok {
		t.Fatal("nil *GroupStats claims an objective")
	}
}

// TestFairnessMath pins Jain's index, max/min ratio, and the isolation gap
// on hand-checkable distributions.
func TestFairnessMath(t *testing.T) {
	t.Parallel()
	mk := func(bytes ...int64) []GroupReport {
		gs := NewGroupStats(0)
		for i, b := range bytes {
			c := gs.Cell(g0 + uint32(i))
			c.Packet(0, b)
			c.Message(0, 100*int64(i+1)) // p99s: 100, 200, ...
		}
		return gs.Snapshot()
	}
	f := Fairness(mk(1000, 1000, 1000, 1000))
	if math.Abs(f.JainIndex-1.0) > 1e-9 || f.MaxMinRatio != 1.0 {
		t.Fatalf("even split: jain=%v maxmin=%v, want 1/1", f.JainIndex, f.MaxMinRatio)
	}
	// One group hogs everything: Jain -> 1/n.
	f = Fairness(mk(4000, 0, 0, 0))
	if math.Abs(f.JainIndex-0.25) > 1e-9 {
		t.Fatalf("monopoly: jain=%v, want 0.25", f.JainIndex)
	}
	if f.MaxMinRatio != 0 {
		t.Fatalf("starved group: maxmin=%v, want 0 (sentinel)", f.MaxMinRatio)
	}
	f = Fairness(mk(1000, 2000))
	if f.MaxMinRatio != 2.0 {
		t.Fatalf("maxmin=%v, want 2", f.MaxMinRatio)
	}
	if f.WorstGroup != g0+1 || f.WorstP99 < f.FleetP99 || f.P99IsolationGap < 1.0 {
		t.Fatalf("isolation: %+v", f)
	}
	if z := Fairness(nil); z.Groups != 0 || z.JainIndex != 0 {
		t.Fatalf("empty fairness not zero: %+v", z)
	}
}

// TestParseSLO covers the shared CLI spec grammar.
func TestParseSLO(t *testing.T) {
	t.Parallel()
	o, w, err := ParseSLO("p99=2ms,goodput=1e9,drops=0.001,window=500us")
	if err != nil {
		t.Fatal(err)
	}
	if o.DeliveryP99 != 2*sim.Millisecond || o.GoodputFloor != 1e9 || o.DropBudget != 0.001 {
		t.Fatalf("parsed objective: %+v", o)
	}
	if w.Short != 500*sim.Microsecond {
		t.Fatalf("parsed window: %+v", w)
	}
	for _, bad := range []string{"", "p99", "p99=abc", "drops=2", "drops=0", "nope=1", "window=1ms"} {
		if _, _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q): want error", bad)
		}
	}
	if s := o.String(); !strings.Contains(s, "p99<=") || !strings.Contains(s, "goodput>=") {
		t.Errorf("objective String: %q", s)
	}
}

// TestParseSLORejectsNonFinite pins the rejection of values that used to
// parse into an empty or unreachable objective, or a negative window:
// non-finite numbers and durations that overflow sim.Time.
func TestParseSLORejectsNonFinite(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{
		"p99=NaN", "p99=Inf", "p99=+Inf", "p99=1e300", "p99=1e10s",
		"p99=9223372036854775807", "drops=NaN", "drops=Inf", "goodput=NaN",
		"goodput=Inf", "goodput=-Inf", "p99=2ms,window=NaN", "p99=2ms,window=Inf",
		"p99=2ms,window=1e19",
	} {
		if o, w, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) = %+v, %+v; want error", bad, o, w)
		}
	}
	// The largest durations that still fit are accepted.
	if o, _, err := ParseSLO("p99=9e9s"); err != nil || o.DeliveryP99 != 9e9*sim.Second {
		t.Errorf("ParseSLO(p99=9e9s) = %+v, %v", o, err)
	}
}

// FuzzParseSLO: a spec either fails or yields finite, non-negative fields
// and an objective that renders non-empty.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{
		"p99=2ms,goodput=1e9,drops=0.001,window=500us", "p99=NaN",
		"goodput=Inf", "drops=0.5", "p99=2ms,window=NaN", "p99=1e300", "window=1ms",
		"p99=0x1p10us", " goodput = 1 ", "p99=1.5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		o, w, err := ParseSLO(spec)
		if err != nil {
			return
		}
		for _, v := range []float64{o.GoodputFloor, o.DropBudget, w.Threshold} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("ParseSLO(%q) = %+v, %+v: field %v not finite and >= 0", spec, o, w, v)
			}
		}
		if o.DeliveryP99 < 0 || w.Short < 0 || w.Long < 0 {
			t.Fatalf("ParseSLO(%q) = %+v, %+v: negative duration", spec, o, w)
		}
		if o.String() == "" {
			t.Fatalf("ParseSLO(%q) = %+v: accepted with an empty String()", spec, o)
		}
	})
}

// synthReport builds a report whose goodput series is bytes[i] in bucket i
// (100us buckets), with msgs/slow alongside.
func synthReport(bytes []int64, slow []uint64) GroupReport {
	gs := NewGroupStats(100 * sim.Microsecond)
	gs.SetObjective(g0, SLOObjective{DeliveryP99: sim.Millisecond})
	c := gs.Cell(g0)
	for i, b := range bytes {
		at := sim.Time(i) * 100 * sim.Microsecond
		if b > 0 {
			c.Packet(at, b)
		}
		c.Message(at, 10) // fast message keeps the bucket non-empty
		if slow != nil {
			for j := uint64(0); j < slow[i]; j++ {
				c.Message(at, int64(2*sim.Millisecond)) // over the objective
			}
		}
	}
	return gs.Snapshot()[0]
}

// TestSLOBreachTimeline: a goodput collapse mid-run opens exactly one
// breach covering the starved span, once both windows confirm it.
func TestSLOBreachTimeline(t *testing.T) {
	t.Parallel()
	// 100us buckets; 10KB/bucket = 1e8 B/s. Floor at 5e7 B/s: the zeroed
	// span [20, 40) starves both windows.
	bytes := make([]int64, 60)
	for i := range bytes {
		bytes[i] = 10_000
		if i >= 20 && i < 40 {
			bytes[i] = 0
		}
	}
	r := synthReport(bytes, nil)
	w := SLOWindows{Short: 200 * sim.Microsecond, Long: 600 * sim.Microsecond}
	res := EvalGroupSLO(&r, SLOObjective{GoodputFloor: 5e7}, w)
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	g := res[0]
	if len(g.Breaches) != 1 {
		t.Fatalf("got %d breaches, want 1: %+v", len(g.Breaches), g.Breaches)
	}
	b := g.Breaches[0]
	// The short window (2 buckets) is fully starved from bucket 21; the
	// long window confirms within the gap; recovery restores compliance
	// after bucket 40.
	if b.Start < 20*100*sim.Microsecond || b.Start > 26*100*sim.Microsecond {
		t.Errorf("breach start %v outside the starved span onset", b.Start)
	}
	if b.End < 40*100*sim.Microsecond || b.End > 46*100*sim.Microsecond {
		t.Errorf("breach end %v outside the recovery edge", b.End)
	}
	if g.PeakShortBurn < 1/goodputSlack-1e-9 {
		t.Errorf("fully starved short window burn %v, want ~%v", g.PeakShortBurn, 1/goodputSlack)
	}
}

// TestSLOMultiWindowSuppressesBlips: a one-bucket latency blip trips the
// short window but not the long one, so no breach opens — the whole point
// of multi-window burn rates.
func TestSLOMultiWindowSuppressesBlips(t *testing.T) {
	t.Parallel()
	slow := make([]uint64, 60)
	slow[30] = 1 // one slow message among 60 fast ones
	r := synthReport(make([]int64, 60), slow)
	w := SLOWindows{Short: 100 * sim.Microsecond, Long: 3 * sim.Millisecond, Threshold: 30}
	res := EvalGroupSLO(&r, SLOObjective{DeliveryP99: sim.Millisecond}, w)
	g := res[0]
	if g.PeakShortBurn < 30 {
		t.Fatalf("short window never saw the blip: peak=%v", g.PeakShortBurn)
	}
	if g.PeakLongBurn >= 30 {
		t.Fatalf("long window amplified the blip: peak=%v", g.PeakLongBurn)
	}
	if g.Breached() {
		t.Fatalf("blip opened a breach: %+v", g.Breaches)
	}
}

// TestGroupReportsFromEvents: the offline (trace-replay) builder books
// deliveries, retransmits, and drops by the same classification the live
// hooks use, at message granularity.
func TestGroupReportsFromEvents(t *testing.T) {
	t.Parallel()
	host := uint32(0x0A000001)
	evs := []Event{
		{At: 1000, Kind: KDeliver, Src: g0, Dst: host, A: 500, B: 4096, Msg: 1},
		{At: 2000, Kind: KDeliver, Src: g0, Dst: host, A: 700, B: 4096, Msg: 2},
		{At: 2500, Kind: KDeliver, Src: host, Dst: host, A: 100, B: 64, Msg: 3}, // unicast: ignored
		{At: 3000, Kind: KRetransmit, Src: host, Dst: g0, B: 1024},
		{At: 4000, Kind: KDrop, Src: host, Dst: g0, B: 1088},
		{At: 5000, Kind: KDrop, Src: g0, Dst: host, B: 60}, // group-sourced feedback
	}
	reps := GroupReportsFromEvents(evs, 0, func(g uint32) (SLOObjective, bool) {
		return SLOObjective{DeliveryP99: 600}, true
	})
	if len(reps) != 1 {
		t.Fatalf("got %d groups, want 1", len(reps))
	}
	r := reps[0]
	if r.DeliveredBytes != 8192 || r.Messages != 2 || r.RetransPkts != 1 ||
		r.RetransBytes != 1024 || r.DroppedPkts != 2 || r.DroppedBytes != 1148 {
		t.Fatalf("offline report: %+v", r)
	}
	var slow uint64
	for _, p := range r.Series {
		slow += p.Slow
	}
	if slow != 1 {
		t.Fatalf("slow messages = %d, want 1 (700ns > 600ns objective)", slow)
	}
	if r.ID() != 0 {
		t.Fatalf("ID() = %d, want 0", r.ID())
	}
}

// TestWriteGroupTable smoke-checks the shared table renderer.
func TestWriteGroupTable(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	WriteGroupTable(&sb, nil)
	if !strings.Contains(sb.String(), "no group traffic") {
		t.Fatalf("empty table: %q", sb.String())
	}
	gs := NewGroupStats(0)
	gs.Cell(g0).Packet(0, 100)
	gs.Cell(g0).Message(0, 42)
	sb.Reset()
	WriteGroupTable(&sb, gs.Snapshot())
	out := sb.String()
	if !strings.Contains(out, "g0") || !strings.Contains(out, "fairness:") {
		t.Fatalf("table missing rows: %q", out)
	}
}
