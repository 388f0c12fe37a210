package main

import "sort"

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0: a counter pair that never
// ticked (no ACKs reached an accelerator on an overlay workload) reads as
// "no aggregation happened", not as a division error.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perOp spreads a count over ops; 0 when no ops ran.
func perOp(count float64, ops int) float64 { return ratio(count, float64(ops)) }
