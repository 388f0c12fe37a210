package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	}
	for _, c := range cases {
		orig := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range orig {
			if orig[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
}

func TestRatioAndPerOp(t *testing.T) {
	// A counter pair that never ticked — core.ack_agg_ratio on an overlay
	// workload, whose ACKs never reach an accelerator — reads 0, not NaN.
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(23, 8); got != 2.875 {
		t.Errorf("ratio(23, 8) = %v, want 2.875", got)
	}
	if got := perOp(10, 0); got != 0 {
		t.Errorf("perOp(10, 0) = %v, want 0", got)
	}
	if got := perOp(10, 4); got != 2.5 {
		t.Errorf("perOp(10, 4) = %v, want 2.5", got)
	}
	if v := ratio(1, 3); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("ratio(1, 3) = %v", v)
	}
}

func TestMedianOfOps(t *testing.T) {
	ops := []opSample{{cpu: 3e6, hops: 30}, {cpu: 1e6, hops: 20}, {cpu: 2e6, hops: 40}}
	if got := medianOf(ops, func(s opSample) float64 { return ms(s.cpu) }); got != 2 {
		t.Errorf("median op ms = %v, want 2", got)
	}
	if got := medianOf(ops, func(s opSample) float64 { return float64(s.hops) / s.cpu.Seconds() }); got != 20000 {
		t.Errorf("median hops/s = %v, want 20000", got)
	}
}
