package cepheus

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// deviceCounter is one device-owned counter and the Metrics field it must
// land in.
type deviceCounter struct {
	field string
	p     *uint64
}

// deviceCounters lists every device counter Metrics sums, on the testbed's
// switch, one of its ports, one host NIC and the accelerator.
func deviceCounters(c *Cluster) []deviceCounter {
	sw, a := c.Net.Switches[0], c.Accels[0]
	pt, nic := &sw.Ports[0].Stats, &c.Net.Hosts[0].NIC.Stats
	return []deviceCounter{
		{"DataDrops", &sw.DataDrops},
		{"CtrlDrops", &sw.CtrlDrops},
		{"CrashDrops", &sw.CrashDrops},
		{"NoRouteDrops", &sw.NoRouteDrops},
		{"FaultDrops", &pt.FaultDrops},
		{"FaultDrops", &nic.FaultDrops},
		{"ImpairDrops", &pt.ImpairDrops},
		{"ImpairDrops", &nic.ImpairDrops},
		{"CorruptDrops", &pt.CorruptDrops},
		{"CorruptDrops", &nic.CorruptDrops},
		{"CtrlStormDrops", &pt.StormDrops},
		{"CtrlStormDrops", &nic.StormDrops},
		{"MFTWipes", &a.Stats.MFTWipes},
		{"EpochRebuilds", &a.Stats.EpochRebuilds},
		{"StaleMRPDropped", &a.Stats.StaleMRPDropped},
		{"UnknownGroupDrops", &a.Stats.UnknownGroupDrops},
		{"UnknownGroupNacks", &a.Stats.UnknownGroupNacks},
	}
}

// TestMetricsDeviceCounters: bumping each device counter moves exactly its
// Metrics field, by exactly the bump, and every Metrics field is some
// device counter's — so a new field that Metrics never sums fails here
// instead of reading zero forever.
func TestMetricsDeviceCounters(t *testing.T) {
	t.Parallel()
	c := NewTestbed(2, Options{Seed: 1})
	moved := make(map[string]bool)
	for i, dc := range deviceCounters(c) {
		bump := uint64(i + 1)
		before := c.Metrics()
		*dc.p += bump
		after := c.Metrics()
		bv, av := reflect.ValueOf(before), reflect.ValueOf(after)
		for f := 0; f < bv.NumField(); f++ {
			name := bv.Type().Field(f).Name
			delta := av.Field(f).Uint() - bv.Field(f).Uint()
			switch {
			case name == dc.field && delta != bump:
				t.Errorf("counter %d: Metrics.%s moved by %d, want %d", i, name, delta, bump)
			case name != dc.field && delta != 0:
				t.Errorf("counter %d: Metrics.%s moved by %d, want 0 (only %s should move)", i, name, delta, dc.field)
			}
			if delta != 0 {
				moved[name] = true
			}
		}
	}
	mt := reflect.TypeOf(Metrics{})
	for f := 0; f < mt.NumField(); f++ {
		if name := mt.Field(f).Name; !moved[name] {
			t.Errorf("Metrics.%s is no device counter's sum", name)
		}
	}
}

// TestSeriesFabricNames pins EnableSeries' fab/* delta series: their
// names, their column order, and that each samples its Metrics field.
func TestSeriesFabricNames(t *testing.T) {
	t.Parallel()
	c := NewTestbed(2, Options{Seed: 1})
	s := c.EnableSeries(10*sim.Microsecond, 0)
	want := []string{
		"qdepth/total", "qdepth/max",
		"fab/data-drops", "fab/ctrl-drops", "fab/crash-drops", "fab/no-route-drops",
		"fab/fault-drops", "fab/mft-wipes", "fab/epoch-rebuilds", "fab/stale-mrp",
		"fab/unknown-group-drops", "fab/unknown-group-nacks", "fab/impair-drops",
		"fab/corrupt-drops", "fab/ctrl-storm-drops",
	}
	if got := s.Names(); !slices.Equal(got, want) {
		t.Fatalf("series = %q, want %q", got, want)
	}
	s.Start()
	c.Net.Switches[0].CtrlDrops += 3
	c.Accels[0].Stats.UnknownGroupNacks += 5
	c.SettleUntil(10 * sim.Microsecond)
	for name, v := range map[string]float64{"fab/ctrl-drops": 3, "fab/unknown-group-nacks": 5, "fab/data-drops": 0} {
		if got := s.Values(name); len(got) != 1 || got[0] != v {
			t.Errorf("%s = %v, want [%v]", name, got, v)
		}
	}
}
