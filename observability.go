package cepheus

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/roce"
	"repro/internal/sim"
)

// DefaultTraceCapacity is the flight-recorder ring size EnableTrace uses
// when the caller passes 0: large enough to hold the complete history of a
// testbed-scale run, bounded enough that a fat-tree sweep keeps only its
// recent past (a flight recorder, not a full log).
const DefaultTraceCapacity = 1 << 20

// EnableTrace turns the flight recorder on for every device in the cluster
// and returns it. capacity is how many of the newest events it keeps (0 selects
// DefaultTraceCapacity). Call it after construction and before the traffic
// of interest; tracing can only be enabled once per cluster.
//
// Devices register switches-first in topology order, so device ids — and
// therefore the canonical export order — are a function of the topology.
func (c *Cluster) EnableTrace(capacity int) *obs.Recorder {
	if c.Rec != nil {
		return c.Rec
	}
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	rec := obs.NewRecorder(capacity)
	for _, sw := range c.Net.Switches {
		// The switch, its ports, and its attached accelerator share one
		// device id; the Port field distinguishes egresses.
		sw.SetTracer(rec.NewTracer(sw.Name))
	}
	for i, h := range c.Net.Hosts {
		tr := rec.NewTracer(h.Name)
		h.NIC.SetTracer(tr)
		c.RNICs[i].SetTracer(tr)
	}
	c.Rec = rec
	return rec
}

// EnableGroupStats turns per-group attribution on for every device in the
// cluster and returns the registry: delivered payload and per-message
// latency book at responder RNICs, retransmissions at requester RNICs, and
// drops wherever the fabric kills a frame — each keyed by the multicast
// group id that owned the traffic. bucket is the goodput time-series
// resolution (0 selects obs.DefaultGoodputBucket).
//
// Attribution is pure host-side accounting: it schedules no events, mutates
// no packets, and draws no randomness, so enabling it is digest- and
// trace-byte-neutral.
// Declare SLO objectives (GS.SetObjective) before the traffic of interest;
// the delivery-latency threshold is latched at each group's first packet.
func (c *Cluster) EnableGroupStats(bucket sim.Time) *obs.GroupStats {
	if c.GS != nil {
		return c.GS
	}
	gs := obs.NewGroupStats(bucket)
	for _, sw := range c.Net.Switches {
		sw.SetGroupStats(gs)
	}
	for i, h := range c.Net.Hosts {
		h.NIC.SetGroupStats(gs)
		c.RNICs[i].SetGroupStats(gs)
	}
	c.GS = gs
	return gs
}

// GroupStats returns the per-group attribution registry (nil until
// EnableGroupStats).
func (c *Cluster) GroupStats() *obs.GroupStats { return c.GS }

// GroupReports returns the per-group snapshot, sorted by group id;
// empty until EnableGroupStats and some multicast traffic. Read only while
// the cluster is quiescent (between runs).
func (c *Cluster) GroupReports() []obs.GroupReport { return c.GS.Snapshot() }

// GroupFairness derives the fairness report (Jain's index, max/min goodput
// ratio, p99 isolation gap) from the current group snapshot.
func (c *Cluster) GroupFairness() obs.FairnessReport {
	return obs.Fairness(c.GS.Snapshot())
}

// EnableAudit attaches the online protocol auditor to the flight recorder
// (enabling tracing if needed) and returns it. The auditor verifies PSN/ACK
// sanity, delivery uniqueness, per-port byte conservation, and MFT epoch
// monotonicity, streaming, as each event is recorded. Call it before the
// traffic of interest; events recorded before the auditor attaches are not
// audited.
//
// The go-back-N window bound is taken from the cluster's RoCE configuration.
func (c *Cluster) EnableAudit() *obs.Auditor {
	if c.Aud != nil {
		return c.Aud
	}
	rec := c.EnableTrace(0)
	cfg := obs.AuditConfig{}
	if len(c.RNICs) > 0 {
		cfg.WindowPkts = c.RNICs[0].Cfg.WindowPkts
	}
	aud := obs.NewAuditor(cfg)
	rec.Attach(aud.Observe)
	c.Aud = aud
	return aud
}

// EnableSeries starts the periodic telemetry sampler and returns it, wired
// with the cluster-wide defaults: aggregate and maximum egress queue depth,
// and per-interval deltas of every fabric counter. Callers add more probes
// (TrackPortDepths, TrackQPRates, or custom closures) before traffic starts.
// interval 0 selects 100µs; capacity 0 selects 4096 samples (the set
// decimates and doubles its interval when full).
func (c *Cluster) EnableSeries(interval sim.Time, capacity int) *obs.SeriesSet {
	if c.Series != nil {
		return c.Series
	}
	if interval <= 0 {
		interval = 100 * sim.Microsecond
	}
	s := obs.NewSeriesSet(c.Net.Eng, interval, capacity)
	s.Track("qdepth/total", func() float64 {
		var t int64
		for _, sw := range c.Net.Switches {
			for _, pt := range sw.Ports {
				t += int64(pt.QueuedBytes())
			}
		}
		for _, h := range c.Net.Hosts {
			t += int64(h.NIC.QueuedBytes())
		}
		return float64(t)
	})
	s.Track("qdepth/max", func() float64 {
		var m int64
		for _, sw := range c.Net.Switches {
			for _, pt := range sw.Ports {
				if d := int64(pt.QueuedBytes()); d > m {
					m = d
				}
			}
		}
		for _, h := range c.Net.Hosts {
			if d := int64(h.NIC.QueuedBytes()); d > m {
				m = d
			}
		}
		return float64(m)
	})
	// The fab probes run in order at each sample, so the first one walks
	// the devices once and the rest read its snapshot.
	var m Metrics
	for i, f := range fabSeries {
		s.TrackDelta("fab/"+f.name, func() float64 {
			if i == 0 {
				m = c.Metrics()
			}
			return float64(f.get(&m))
		})
	}
	c.Series = s
	return s
}

// TrackPortDepths adds one queue-depth series per switch egress port
// ("q/<switch>:<port>") and per host NIC ("q/<host>") to s. Call before
// Start; intended for testbed/fat-tree scales where per-port series are
// still plottable.
func (c *Cluster) TrackPortDepths(s *obs.SeriesSet) {
	for _, sw := range c.Net.Switches {
		for _, pt := range sw.Ports {
			pt := pt
			s.Track(fmt.Sprintf("q/%s:%d", sw.Name, pt.ID), func() float64 {
				return float64(pt.QueuedBytes())
			})
		}
	}
	for _, h := range c.Net.Hosts {
		nic := h.NIC
		s.Track("q/"+h.Name, func() float64 { return float64(nic.QueuedBytes()) })
	}
}

// TrackQPRates adds one DCQCN-rate series per existing QP
// ("rate/<host>/qp<N>", in Gbit/s) to s. Only QPs alive at call time are
// tracked — set groups up first; QPs created later (recovery fallbacks) are
// not retroactively added.
func (c *Cluster) TrackQPRates(s *obs.SeriesSet) {
	for i, r := range c.RNICs {
		host := c.Net.Hosts[i].Name
		r.EachQP(func(qp *roce.QP) {
			s.Track(fmt.Sprintf("rate/%s/qp%d", host, qp.QPN), func() float64 {
				return qp.Rate() / 1e9
			})
		})
	}
}

// WriteTrace exports the recorded history to w as JSONL (cmd/cepheus-trace
// reads it). A convenience over Rec.Events + WriteJSONL.
func (c *Cluster) WriteTrace(w io.Writer) error {
	if c.Rec == nil {
		return nil
	}
	return c.Rec.WriteJSONL(w, c.Rec.Events())
}

// WriteTraceFile is WriteTrace to a named file.
func (c *Cluster) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DeliveryLatency merges every QP's delivery-latency histogram across the
// cluster's RNICs: the distribution, in nanoseconds, from requester emission
// of a data packet to its in-order acceptance at a responder. Histogram
// merging is commutative, so the result is independent of iteration order.
func (c *Cluster) DeliveryLatency() obs.Summary {
	var h obs.Histogram
	for _, r := range c.RNICs {
		r.MergeDeliveryLatency(&h)
	}
	return h.Summary()
}

// MessageLatency merges every QP's per-message delivery-latency histogram
// across the cluster's RNICs: the distribution, in nanoseconds, from the
// requester emitting a message's first data packet to a responder accepting
// its last packet in order. Each receiver of a multicast contributes one
// sample per message, so the percentiles spread with fan-out, pacing, and
// retransmission — unlike per-packet transit latency, which is nearly
// constant on an uncongested fabric.
func (c *Cluster) MessageLatency() obs.Summary {
	var h obs.Histogram
	for _, r := range c.RNICs {
		r.MergeMessageLatency(&h)
	}
	return h.Summary()
}

// QueueDepth summarizes the egress queue-depth histogram, which every port
// in the fabric (switch egresses and host NICs) feeds: the
// distribution, in bytes, of queue occupancy observed at each enqueue. Max
// is the deepest any queue ever got.
func (c *Cluster) QueueDepth() obs.Summary { return c.Fab.QueueDepth() }

// SettleUntil drives the cluster until every event with timestamp <= t has
// executed (or the run quiesces), then stands the clock at t.
func (c *Cluster) SettleUntil(t sim.Time) { c.Net.Eng.RunUntil(t) }
