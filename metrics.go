package cepheus

import "fmt"

// Metrics aggregates the cluster-wide health and fault counters: what the
// fabric dropped and why, and what the accelerators did to their volatile
// state. RecoveryStats (per ResilientGroup) covers the scheme-switching
// side; Metrics covers the fabric side.
type Metrics struct {
	// DataDrops counts loss-injected data discards across switches.
	DataDrops uint64
	// CtrlDrops counts control packets (MRP/ACK/NACK/CNP) discarded by
	// ControlLossRate across switches.
	CtrlDrops uint64
	// CrashDrops counts packets that died at a crashed switch.
	CrashDrops uint64
	// NoRouteDrops counts packets dropped for lack of a FIB entry (routes
	// repaired around a dead destination).
	NoRouteDrops uint64
	// FaultDrops counts frames lost to dead links, summed over every port
	// (switch ports and host NICs).
	FaultDrops uint64

	// ImpairDrops counts frames lost to gray-failure wire impairments
	// (iid and Gilbert-Elliott burst loss), summed over every port.
	ImpairDrops uint64
	// CorruptDrops counts frames lost to modeled CRC corruption.
	CorruptDrops uint64
	// CtrlStormDrops counts control packets lost to targeted control-plane
	// loss storms.
	CtrlStormDrops uint64

	// MFTWipes counts multicast groups lost to switch crashes (volatile
	// MFTs), summed over accelerators.
	MFTWipes uint64
	// EpochRebuilds counts MFTs replaced wholesale by a newer-epoch
	// registration.
	EpochRebuilds uint64
	// StaleMRPDropped counts older-epoch MRP replays discarded by switches.
	StaleMRPDropped uint64
	// UnknownGroupDrops counts multicast data packets dropped by a switch
	// with no MFT for the group (e.g. after a crash wiped it).
	UnknownGroupDrops uint64
	// UnknownGroupNacks counts the rejections switches sent toward sources
	// of unknown-group data — the signal that invalidates a stale group.
	UnknownGroupNacks uint64
}

// Metrics sums the fault and drop counters over every device of the
// fabric: switches, their ports, host NICs and accelerators.
// Only meaningful while the simulation is quiescent (between Run calls).
func (c *Cluster) Metrics() Metrics {
	var m Metrics
	for _, sw := range c.Net.Switches {
		m.DataDrops += sw.DataDrops
		m.CtrlDrops += sw.CtrlDrops
		m.CrashDrops += sw.CrashDrops
		m.NoRouteDrops += sw.NoRouteDrops
		for _, pt := range sw.Ports {
			m.FaultDrops += pt.Stats.FaultDrops
			m.ImpairDrops += pt.Stats.ImpairDrops
			m.CorruptDrops += pt.Stats.CorruptDrops
			m.CtrlStormDrops += pt.Stats.StormDrops
		}
	}
	for _, h := range c.Net.Hosts {
		m.FaultDrops += h.NIC.Stats.FaultDrops
		m.ImpairDrops += h.NIC.Stats.ImpairDrops
		m.CorruptDrops += h.NIC.Stats.CorruptDrops
		m.CtrlStormDrops += h.NIC.Stats.StormDrops
	}
	for _, a := range c.Accels {
		m.MFTWipes += a.Stats.MFTWipes
		m.EpochRebuilds += a.Stats.EpochRebuilds
		m.StaleMRPDropped += a.Stats.StaleMRPDropped
		m.UnknownGroupDrops += a.Stats.UnknownGroupDrops
		m.UnknownGroupNacks += a.Stats.UnknownGroupNacks
	}
	return m
}

// fabSeries names the fab/<name> delta series EnableSeries samples from
// Metrics, in column order.
var fabSeries = [...]struct {
	name string
	get  func(*Metrics) uint64
}{
	{"data-drops", func(m *Metrics) uint64 { return m.DataDrops }},
	{"ctrl-drops", func(m *Metrics) uint64 { return m.CtrlDrops }},
	{"crash-drops", func(m *Metrics) uint64 { return m.CrashDrops }},
	{"no-route-drops", func(m *Metrics) uint64 { return m.NoRouteDrops }},
	{"fault-drops", func(m *Metrics) uint64 { return m.FaultDrops }},
	{"mft-wipes", func(m *Metrics) uint64 { return m.MFTWipes }},
	{"epoch-rebuilds", func(m *Metrics) uint64 { return m.EpochRebuilds }},
	{"stale-mrp", func(m *Metrics) uint64 { return m.StaleMRPDropped }},
	{"unknown-group-drops", func(m *Metrics) uint64 { return m.UnknownGroupDrops }},
	{"unknown-group-nacks", func(m *Metrics) uint64 { return m.UnknownGroupNacks }},
	{"impair-drops", func(m *Metrics) uint64 { return m.ImpairDrops }},
	{"corrupt-drops", func(m *Metrics) uint64 { return m.CorruptDrops }},
	{"ctrl-storm-drops", func(m *Metrics) uint64 { return m.CtrlStormDrops }},
}

// String renders the non-zero counters compactly.
func (m Metrics) String() string {
	s := ""
	add := func(name string, v uint64) {
		if v > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%d", name, v)
		}
	}
	add("dataDrops", m.DataDrops)
	add("ctrlDrops", m.CtrlDrops)
	add("crashDrops", m.CrashDrops)
	add("noRouteDrops", m.NoRouteDrops)
	add("faultDrops", m.FaultDrops)
	add("impairDrops", m.ImpairDrops)
	add("corruptDrops", m.CorruptDrops)
	add("ctrlStormDrops", m.CtrlStormDrops)
	add("mftWipes", m.MFTWipes)
	add("epochRebuilds", m.EpochRebuilds)
	add("staleMRPDropped", m.StaleMRPDropped)
	add("unknownGroupDrops", m.UnknownGroupDrops)
	add("unknownGroupNacks", m.UnknownGroupNacks)
	if s == "" {
		return "clean"
	}
	return s
}

// SetControlLossRate injects random control-plane loss (MRP, confirmations,
// ACK/NACK/CNP — everything except PFC) on every switch, exercising the
// registration retransmission and feedback recovery paths.
func (c *Cluster) SetControlLossRate(rate float64) {
	for _, sw := range c.Net.Switches {
		sw.ControlLossRate = rate
	}
}
