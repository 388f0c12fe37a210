package obs

import (
	"testing"

	"repro/internal/sim"
)

func TestQuantileEmpty(t *testing.T) {
	t.Parallel()
	if got := Quantile(nil, 0.5); got != -1 {
		t.Fatalf("Quantile(nil) = %v, want -1", got)
	}
	if got := Quantile([]sim.Time{}, 0.99); got != -1 {
		t.Fatalf("Quantile(empty) = %v, want -1", got)
	}
}

func TestQuantileSingle(t *testing.T) {
	t.Parallel()
	xs := []sim.Time{42}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := Quantile(xs, q); got != 42 {
			t.Fatalf("Quantile([42], %v) = %v, want 42", q, got)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	t.Parallel()
	// Unsorted on purpose: Quantile must sort a copy.
	xs := []sim.Time{70, 10, 100, 40, 90, 20, 60, 30, 80, 50}
	cases := []struct {
		q    float64
		want sim.Time
	}{
		{0.01, 10}, // rank rounds below the first element: clamps to min
		{0.1, 10},
		{0.5, 50},
		{0.9, 90},
		{0.99, 100}, // rank rounds past the last element: clamps to max
		{1, 100},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Fatalf("Quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 70 || xs[9] != 50 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}
