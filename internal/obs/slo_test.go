package obs

import (
	"testing"

	"repro/internal/sim"
)

func TestQuantileEmpty(t *testing.T) {
	if got := Quantile(nil, 0.5); got != -1 {
		t.Fatalf("Quantile(nil) = %v, want -1", got)
	}
	if got := Quantile([]sim.Time{}, 0.99); got != -1 {
		t.Fatalf("Quantile(empty) = %v, want -1", got)
	}
}

func TestQuantileSingle(t *testing.T) {
	xs := []sim.Time{42}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := Quantile(xs, q); got != 42 {
			t.Fatalf("Quantile([42], %v) = %v, want 42", q, got)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
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

func TestDeliveredBytes(t *testing.T) {
	evs := []Event{
		{At: 5, Kind: KDeliver, B: 100},   // before the window
		{At: 10, Kind: KDeliver, B: 1000}, // at from: included
		{At: 15, Kind: KEnqueue, B: 777},  // wrong kind
		{At: 15, Kind: KDeliver, B: 200},
		{At: 20, Kind: KDeliver, B: 4000}, // at to: excluded (half-open)
		{At: 25, Kind: KDeliver, B: 100},  // after the window
	}
	if got := DeliveredBytes(evs, 10, 20); got != 1200 {
		t.Fatalf("DeliveredBytes = %d, want 1200", got)
	}
	if got := DeliveredBytes(evs, 0, 100); got != 5400 {
		t.Fatalf("DeliveredBytes(all) = %d, want 5400", got)
	}
	if got := DeliveredBytes(nil, 0, 100); got != 0 {
		t.Fatalf("DeliveredBytes(nil) = %d, want 0", got)
	}
}
