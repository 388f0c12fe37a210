package cepheus

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// fcounterField maps every fabric counter to the Metrics field it must
// land in. The mapping test walks this table AND asserts exhaustiveness in
// both directions, so adding an FCounter without wiring it through
// Cluster.Metrics() (or a Metrics field without a counter) fails here
// instead of silently reading zero forever.
var fcounterField = map[obs.FCounter]string{
	obs.FDataDrops:         "DataDrops",
	obs.FCtrlDrops:         "CtrlDrops",
	obs.FCrashDrops:        "CrashDrops",
	obs.FNoRouteDrops:      "NoRouteDrops",
	obs.FFaultDrops:        "FaultDrops",
	obs.FMFTWipes:          "MFTWipes",
	obs.FEpochRebuilds:     "EpochRebuilds",
	obs.FStaleMRPDropped:   "StaleMRPDropped",
	obs.FUnknownGroupDrops: "UnknownGroupDrops",
	obs.FUnknownGroupNacks: "UnknownGroupNacks",
	obs.FImpairDrops:       "ImpairDrops",
	obs.FCorruptDrops:      "CorruptDrops",
	obs.FStormDrops:        "CtrlStormDrops",
}

// TestMetricsFieldMapping: incrementing each fabric counter moves exactly
// its Metrics field by exactly one, and the counter set and the Metrics
// struct stay in one-to-one correspondence.
func TestMetricsFieldMapping(t *testing.T) {
	t.Parallel()
	if got, want := len(fcounterField), int(obs.NumFCounters); got != want {
		t.Fatalf("mapping table covers %d counters, obs declares %d — update fcounterField and Cluster.Metrics()", got, want)
	}
	if got, want := reflect.TypeOf(Metrics{}).NumField(), int(obs.NumFCounters); got != want {
		t.Fatalf("Metrics has %d fields, obs declares %d counters — update Metrics and Cluster.Metrics()", got, want)
	}
	c := NewTestbed(2, Options{Seed: 1})
	for fc := obs.FCounter(0); fc < obs.NumFCounters; fc++ {
		want, ok := fcounterField[fc]
		if !ok {
			t.Fatalf("counter %v (%d) missing from fcounterField", fc, fc)
		}
		before := c.Metrics()
		c.Fab.Inc(fc)
		after := c.Metrics()
		bv, av := reflect.ValueOf(before), reflect.ValueOf(after)
		for i := 0; i < bv.NumField(); i++ {
			name := bv.Type().Field(i).Name
			delta := av.Field(i).Uint() - bv.Field(i).Uint()
			switch {
			case name == want && delta != 1:
				t.Errorf("Inc(%v): Metrics.%s moved by %d, want 1", fc, name, delta)
			case name != want && delta != 0:
				t.Errorf("Inc(%v): Metrics.%s moved by %d, want 0 (only %s should move)", fc, name, delta, want)
			}
		}
	}
	// Every counter incremented once: the renderer must now name all of them.
	if s := c.Metrics().String(); s == "clean" {
		t.Fatalf("Metrics.String() = %q after incrementing every counter", s)
	}
}
