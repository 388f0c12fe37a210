package main

import (
	cepheus "repro"
)

// counters is a snapshot of the public per-layer statistics, keyed by
// "<layer>.<counter>". A traced run reports their deltas over the timed ops.
type counters map[string]uint64

// fabricHops counts simulated packet-hops: frames transmitted by every
// switch port and host NIC. It does not depend on how the engine batches
// events.
func fabricHops(c *cepheus.Cluster) uint64 {
	var n uint64
	for _, sw := range c.Net.Switches {
		for _, pt := range sw.Ports {
			n += pt.Stats.TxPackets
		}
	}
	for _, h := range c.Net.Hosts {
		n += h.NIC.Stats.TxPackets
	}
	return n
}

func readCounters(c *cepheus.Cluster) counters {
	k := counters{
		"sim.events":   c.EventsRun(),
		"simnet.hops":  fabricHops(c),
		"simnet.drops": c.TotalDrops(), // loss-injected data discards
	}
	for _, sw := range c.Net.Switches {
		for _, pt := range sw.Ports {
			k["simnet.ecn_marks"] += pt.Stats.ECNMarks
			k["simnet.pauses"] += pt.Stats.PauseSent
			k["simnet.drops"] += pt.Stats.Drops
		}
	}
	for _, h := range c.Net.Hosts {
		s := &h.NIC.Stats
		k["simnet.ecn_marks"] += s.ECNMarks
		k["simnet.pauses"] += s.PauseSent
		k["simnet.drops"] += s.Drops
	}
	for _, a := range c.Accels {
		s := &a.Stats
		k["core.replicated"] += s.DataReplicated
		k["core.retrans_filtered"] += s.RetransFiltered
		k["core.acks_in"] += s.AcksIn
		k["core.acks_emitted"] += s.AcksEmitted
		k["core.nacks_in"] += s.NacksIn
		k["core.nacks_emitted"] += s.NacksEmitted
		k["core.cnps_in"] += s.CNPsIn
		k["core.cnps_filtered"] += s.CNPsFiltered
	}
	for _, r := range c.RNICs {
		s := &r.Stats
		k["roce.data_sent"] += s.DataSent
		k["roce.retransmits"] += s.Retransmits
		k["roce.gobackn"] += s.GoBackN
		k["roce.timeouts"] += s.Timeouts
		k["roce.dup"] += s.DupData
	}
	for _, v := range groupDelivered(c) {
		k["obs.delivered"] += uint64(v)
	}
	return k
}

// addDelta accumulates after-before into k.
func (k counters) addDelta(after, before counters) {
	for name, v := range after {
		k[name] += v - before[name]
	}
}

// maxQueueBytes is the deepest egress queue any port has held since the
// cluster was built.
func maxQueueBytes(c *cepheus.Cluster) int {
	m := 0
	for _, sw := range c.Net.Switches {
		for _, pt := range sw.Ports {
			m = max(m, pt.Stats.MaxQueued)
		}
	}
	for _, h := range c.Net.Hosts {
		m = max(m, h.NIC.Stats.MaxQueued)
	}
	return m
}
