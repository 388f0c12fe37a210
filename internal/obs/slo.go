package obs

import (
	"sort"

	"repro/internal/sim"
)

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, sorting a
// copy; -1 if xs is empty. Exact-by-construction for the small sample sets a
// soak produces (unlike the log-bucketed Histogram, which trades exactness
// for allocation-free hot paths).
func Quantile(xs []sim.Time, q float64) sim.Time {
	if len(xs) == 0 {
		return -1
	}
	s := append([]sim.Time(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
