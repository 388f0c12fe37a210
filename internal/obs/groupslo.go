package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Per-group SLO engine: declarative objectives (delivery p99, goodput
// floor, drop budget) evaluated over rolling windows of the goodput
// time-series, with multi-window burn rates and a deterministic breach
// timeline. Everything is a pure reduction over GroupReport buckets, so two
// runs of the same history always produce the same timeline.

// SLOObjective declares what a group is owed. Zero-valued fields disable
// the corresponding objective.
type SLOObjective struct {
	// DeliveryP99: at least 99% of message deliveries must complete within
	// this latency. Messages above it spend the 1% error budget.
	DeliveryP99 sim.Time
	// GoodputFloor: rolling-window goodput must stay at or above this many
	// bytes/second. Windows up to goodputSlack below the floor are
	// tolerated; deeper shortfall burns budget proportionally.
	GoodputFloor float64
	// DropBudget: the allowed fraction of this group's frames the fabric
	// may drop (drops / (drops + accepted packets)).
	DropBudget float64
}

// deliveryBudget is the error budget implied by a p99 objective: 1% of
// messages may exceed the target.
const deliveryBudget = 0.01

// goodputSlack is the tolerated relative shortfall below a goodput floor
// before budget burns: a window at 95% of the floor is compliant, a window
// at 0 burns at 1/goodputSlack = 20x.
const goodputSlack = 0.05

// String renders the objective compactly ("p99<=2ms goodput>=1.0e+09B/s
// drops<=0.1%"); empty for the zero objective.
func (o SLOObjective) String() string {
	var parts []string
	if o.DeliveryP99 > 0 {
		parts = append(parts, fmt.Sprintf("p99<=%v", o.DeliveryP99))
	}
	if o.GoodputFloor > 0 {
		parts = append(parts, fmt.Sprintf("goodput>=%.3gB/s", o.GoodputFloor))
	}
	if o.DropBudget > 0 {
		parts = append(parts, fmt.Sprintf("drops<=%.3g", o.DropBudget))
	}
	return strings.Join(parts, " ")
}

// ParseSLO parses a comma-separated objective spec shared by the
// cepheus-bench, faultsim, and cepheus-trace -slo flags:
//
//	p99=<dur>,goodput=<bytes/s>,drops=<fraction>[,window=<dur>]
//
// e.g. "p99=2ms,goodput=1e9,drops=0.001,window=500us". Durations accept
// ns/us/ms/s suffixes (bare numbers are ns). The window (optional) is the
// short evaluation window; it is returned separately because it configures
// the evaluator, not the objective.
func ParseSLO(spec string) (SLOObjective, SLOWindows, error) {
	var o SLOObjective
	var w SLOWindows
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return o, w, fmt.Errorf("slo: %q is not key=value", kv)
		}
		switch k {
		case "p99":
			d, err := parseDur(v)
			if err != nil {
				return o, w, fmt.Errorf("slo: p99: %v", err)
			}
			o.DeliveryP99 = d
		case "goodput":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0) || math.IsInf(f, 1) {
				return o, w, fmt.Errorf("slo: goodput: bad bytes/s %q", v)
			}
			o.GoodputFloor = f
		case "drops":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f > 0 && f < 1) {
				return o, w, fmt.Errorf("slo: drops: bad fraction %q (need 0<f<1)", v)
			}
			o.DropBudget = f
		case "window":
			d, err := parseDur(v)
			if err != nil {
				return o, w, fmt.Errorf("slo: window: %v", err)
			}
			w.Short = d
		default:
			return o, w, fmt.Errorf("slo: unknown key %q (want p99/goodput/drops/window)", k)
		}
	}
	if o == (SLOObjective{}) {
		return o, w, fmt.Errorf("slo: spec %q declares no objective", spec)
	}
	return o, w, nil
}

// parseDur parses a simulated duration with an optional ns/us/ms/s suffix
// (bare numbers are nanoseconds). NaN, negative values and durations past
// sim.MaxTime are errors.
func parseDur(s string) (sim.Time, error) {
	mult := sim.Time(1)
	switch {
	case strings.HasSuffix(s, "ns"):
		s = strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "us"):
		s, mult = strings.TrimSuffix(s, "us"), sim.Microsecond
	case strings.HasSuffix(s, "ms"):
		s, mult = strings.TrimSuffix(s, "ms"), sim.Millisecond
	case strings.HasSuffix(s, "s"):
		s, mult = strings.TrimSuffix(s, "s"), sim.Second
	}
	n, err := strconv.ParseFloat(s, 64)
	if err != nil || !(n >= 0) || n*float64(mult) >= float64(sim.MaxTime) {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return sim.Time(n * float64(mult)), nil
}

// SLOWindows configures the rolling evaluation. Short is the fast-burn
// detection window, Long the confirmation window; a breach opens only when
// both windows burn above Threshold (the standard multi-window alert shape:
// the short window catches the onset, the long window suppresses blips).
type SLOWindows struct {
	Short     sim.Time // 0 selects 1ms
	Long      sim.Time // 0 selects 6*Short
	Threshold float64  // 0 selects 1.0 (burning faster than sustainable)
}

func (w SLOWindows) norm(bucket sim.Time) SLOWindows {
	if w.Short <= 0 {
		w.Short = sim.Millisecond
	}
	if w.Short < bucket {
		w.Short = bucket
	}
	if w.Long <= 0 {
		w.Long = 6 * w.Short
	}
	if w.Threshold <= 0 {
		w.Threshold = 1.0
	}
	return w
}

// Breach is one contiguous interval during which an objective burned above
// threshold in both windows. End is exclusive, at bucket granularity; a
// breach still open at the end of the history ends at the last bucket edge.
type Breach struct {
	Start, End sim.Time
	Peak       float64 // highest short-window burn inside the interval
}

// SLOResult is the evaluation of one (group, objective) pair.
type SLOResult struct {
	Group         uint32
	Objective     string // "delivery-p99" | "goodput-floor" | "drop-budget"
	Target        string // human-readable objective
	BudgetSpent   float64
	PeakShortBurn float64
	PeakLongBurn  float64
	Breaches      []Breach
}

// Breached reports whether the objective breached at least once.
func (r *SLOResult) Breached() bool { return len(r.Breaches) > 0 }

// errRatio is the per-window error function of one objective kind: given
// the summed bucket contents of a window, return the fraction of budget-
// relevant events that were bad, in [0, 1].
type errRatio func(b *GBucket, window sim.Time) float64

// EvalGroupSLO evaluates one group's report against its objective,
// returning one SLOResult per enabled objective (delivery, goodput, drop),
// in that order. The rolling windows slide bucket-by-bucket across the
// group's active span [first bucket, last bucket]; silent mid-run gaps
// count as zero traffic (which breaches a goodput floor — a starved group
// is exactly what the floor exists to catch).
func EvalGroupSLO(r *GroupReport, o SLOObjective, w SLOWindows) []SLOResult {
	w = w.norm(r.Bucket)
	var out []SLOResult
	if o.DeliveryP99 > 0 {
		res := evalObjective(r, w, "delivery-p99",
			fmt.Sprintf("99%% of messages <= %v", o.DeliveryP99),
			deliveryBudget,
			func(b *GBucket, _ sim.Time) float64 {
				if b.Msgs == 0 {
					return 0
				}
				return float64(b.Slow) / float64(b.Msgs)
			})
		if r.Messages > 0 {
			res.BudgetSpent = float64(sumSlow(r)) / (deliveryBudget * float64(r.Messages))
		}
		out = append(out, res)
	}
	if o.GoodputFloor > 0 {
		floor := o.GoodputFloor
		res := evalObjective(r, w, "goodput-floor",
			fmt.Sprintf("goodput >= %.3g B/s", floor),
			goodputSlack,
			func(b *GBucket, window sim.Time) float64 {
				g := float64(b.Bytes) / (float64(window) / float64(sim.Second))
				if g >= floor {
					return 0
				}
				return 1 - g/floor
			})
		out = append(out, res)
	}
	if o.DropBudget > 0 {
		res := evalObjective(r, w, "drop-budget",
			fmt.Sprintf("drop fraction <= %.3g", o.DropBudget),
			o.DropBudget,
			func(b *GBucket, _ sim.Time) float64 {
				tot := b.Drops + b.Pkts
				if tot == 0 {
					return 0
				}
				return float64(b.Drops) / float64(tot)
			})
		tot := r.DroppedPkts + r.Pkts
		if tot > 0 {
			res.BudgetSpent = (float64(r.DroppedPkts) / float64(tot)) / o.DropBudget
		}
		out = append(out, res)
	}
	return out
}

func sumSlow(r *GroupReport) uint64 {
	var n uint64
	for i := range r.Series {
		n += r.Series[i].Slow
	}
	return n
}

// evalObjective slides the short and long windows across the group's
// active bucket span and builds the breach timeline.
func evalObjective(r *GroupReport, w SLOWindows, kind, target string, budget float64, f errRatio) SLOResult {
	res := SLOResult{Group: r.Group, Objective: kind, Target: target}
	if len(r.Series) == 0 || budget <= 0 {
		return res
	}
	bucket := r.Bucket
	// Dense bucket span, zero-filled: the series is sparse but windows
	// must see silence.
	first := int64(r.Series[0].Start / bucket)
	last := int64(r.Series[len(r.Series)-1].Start / bucket)
	n := int(last - first + 1)
	dense := make([]GBucket, n)
	for i := range r.Series {
		p := &r.Series[i]
		dense[int64(p.Start/bucket)-first] = p.GBucket
	}
	shortN := int(w.Short / bucket)
	longN := int(w.Long / bucket)
	if shortN < 1 {
		shortN = 1
	}
	if longN < shortN {
		longN = shortN
	}
	burnAt := func(end, span int) float64 { // window = dense[end-span+1 .. end]
		lo := end - span + 1
		if lo < 0 {
			lo = 0
			span = end + 1
		}
		var sum GBucket
		for i := lo; i <= end; i++ {
			sum.add(&dense[i])
		}
		return f(&sum, sim.Time(span)*bucket) / budget
	}
	var open *Breach
	for i := 0; i < n; i++ {
		sb := burnAt(i, shortN)
		lb := burnAt(i, longN)
		if sb > res.PeakShortBurn {
			res.PeakShortBurn = sb
		}
		if lb > res.PeakLongBurn {
			res.PeakLongBurn = lb
		}
		edge := sim.Time(first+int64(i)) * bucket
		if sb >= w.Threshold && lb >= w.Threshold {
			if open == nil {
				res.Breaches = append(res.Breaches, Breach{Start: edge, Peak: sb})
				open = &res.Breaches[len(res.Breaches)-1]
			} else if sb > open.Peak {
				open.Peak = sb
			}
			open.End = edge + bucket
		} else {
			open = nil
		}
	}
	return res
}

// EvalSLOs evaluates every group in reports against objFor's objectives
// (groups without one are skipped), returning results sorted by (group,
// objective order). This is the shared backend of the -slo CLI flags.
func EvalSLOs(reports []GroupReport, objFor func(uint32) (SLOObjective, bool), w SLOWindows) []SLOResult {
	var out []SLOResult
	for i := range reports {
		o, ok := objFor(reports[i].Group)
		if !ok {
			continue
		}
		out = append(out, EvalGroupSLO(&reports[i], o, w)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// WriteSLOReport renders results as text: one status line per objective
// plus an indented deterministic breach timeline. Returns the number of
// objectives that breached.
func WriteSLOReport(w io.Writer, results []SLOResult) int {
	breached := 0
	for i := range results {
		r := &results[i]
		status := "ok"
		if r.Breached() {
			status = "BREACH"
			breached++
		}
		fmt.Fprintf(w, "slo g%-4d %-14s %-6s budget_spent=%.3f peak_burn=%.2f/%.2f (%s)\n",
			r.Group-GroupAddrBase, r.Objective, status, r.BudgetSpent,
			r.PeakShortBurn, r.PeakLongBurn, r.Target)
		for _, b := range r.Breaches {
			fmt.Fprintf(w, "  breach [%v, %v) peak_burn=%.2f\n", b.Start, b.End, b.Peak)
		}
	}
	return breached
}
