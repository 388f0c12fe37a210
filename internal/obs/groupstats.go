package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Group-scoped attribution: every delivered, dropped, and retransmitted byte
// in the fabric is booked against the multicast group id that owns it. The
// hot path when attribution is disabled is one nil check; when enabled it is
// a cached-cell pointer add. Nothing here schedules events, mutates packets,
// or draws randomness, so enabling group stats is digest- and
// trace-byte-neutral by construction.

// GroupAddrBase mirrors simnet.MulticastBase (obs cannot import simnet —
// simnet imports obs). Addresses at or above it are multicast group ids.
const GroupAddrBase uint32 = 0xE0000000

// IsGroupAddr reports whether a is a multicast group id (McstID).
func IsGroupAddr(a uint32) bool { return a >= GroupAddrBase }

// DefaultGoodputBucket is the goodput time-series resolution when the
// caller passes 0: fine enough that a fat-tree broadcast (~3.5ms JCT)
// yields tens of points, coarse enough that an hour of simulated time is
// still a bounded map.
const DefaultGoodputBucket = 100 * sim.Microsecond

// GBucket is one goodput time-series bucket: everything the group did in
// [Start, Start+bucket).
type GBucket struct {
	Bytes     int64  // delivered payload bytes
	Pkts      uint64 // accepted data packets
	Msgs      uint64 // completed messages
	Slow      uint64 // messages over the group's delivery-latency objective
	Drops     uint64 // frames dropped anywhere in the fabric
	DropBytes int64  // bytes of those frames
	Retrans   uint64 // retransmitted data packets
	RetxBytes int64  // payload bytes of those retransmissions
}

func (b *GBucket) add(o *GBucket) {
	b.Bytes += o.Bytes
	b.Pkts += o.Pkts
	b.Msgs += o.Msgs
	b.Slow += o.Slow
	b.Drops += o.Drops
	b.DropBytes += o.DropBytes
	b.Retrans += o.Retrans
	b.RetxBytes += o.RetxBytes
}

// GroupCell is the accumulator for one multicast group; readers wait for
// quiescence. Requester-side RNICs cache the cell pointer per QP, so the steady-state
// cost of attribution is a handful of field adds.
type GroupCell struct {
	group  uint32
	bucket sim.Time
	slowNs int64 // delivery objective; 0 = no objective declared

	DeliveredBytes int64
	Pkts           uint64
	Messages       uint64
	DroppedPkts    uint64
	DroppedBytes   int64
	RetransPkts    uint64
	RetransBytes   int64
	Lat            Histogram // per-message delivery latency, ns

	bk      map[int64]*GBucket
	lastIdx int64
	lastBk  *GBucket
}

// at returns the bucket covering t, caching the last one touched: traffic
// is time-local, so the common case is a pointer compare, not a map lookup.
func (c *GroupCell) at(t sim.Time) *GBucket {
	idx := int64(t / c.bucket)
	if c.lastBk != nil && idx == c.lastIdx {
		return c.lastBk
	}
	b := c.bk[idx]
	if b == nil {
		b = &GBucket{}
		c.bk[idx] = b
	}
	c.lastIdx, c.lastBk = idx, b
	return b
}

// Packet books one accepted data packet's payload.
func (c *GroupCell) Packet(at sim.Time, payload int64) {
	c.DeliveredBytes += payload
	c.Pkts++
	b := c.at(at)
	b.Bytes += payload
	b.Pkts++
}

// Message books one completed message delivery: latency in ns from first
// emission to in-order acceptance of the last packet at this receiver.
func (c *GroupCell) Message(at sim.Time, latNs int64) {
	c.Messages++
	c.Lat.Observe(latNs)
	b := c.at(at)
	b.Msgs++
	if c.slowNs > 0 && latNs > c.slowNs {
		b.Slow++
	}
}

// Drop books one frame the fabric killed while it belonged to this group.
func (c *GroupCell) Drop(at sim.Time, frameBytes int64) {
	c.DroppedPkts++
	c.DroppedBytes += frameBytes
	b := c.at(at)
	b.Drops++
	b.DropBytes += frameBytes
}

// Retransmit books one retransmitted data packet.
func (c *GroupCell) Retransmit(at sim.Time, payload int64) {
	c.RetransPkts++
	c.RetransBytes += payload
	b := c.at(at)
	b.Retrans++
	b.RetxBytes += payload
}

// GroupStats is the cluster-wide registry: one accumulator per group, read
// between runs (the same contract as Fabric.Total). A nil *GroupStats is a
// valid no-op target — the nil check is the entire disabled cost, exactly
// like Fabric.
type GroupStats struct {
	bucket sim.Time
	cells  map[uint32]*GroupCell
	objs   map[uint32]SLOObjective
	def    *SLOObjective
}

// NewGroupStats creates an empty registry. bucket is the goodput
// time-series resolution (0 selects DefaultGoodputBucket).
func NewGroupStats(bucket sim.Time) *GroupStats {
	if bucket <= 0 {
		bucket = DefaultGoodputBucket
	}
	return &GroupStats{bucket: bucket, cells: make(map[uint32]*GroupCell)}
}

// Cell returns (lazily creating) the accumulator for group. Returns nil on
// a nil receiver so callers can cache the result unconditionally.
func (g *GroupStats) Cell(group uint32) *GroupCell {
	if g == nil {
		return nil
	}
	c := g.cells[group]
	if c == nil {
		c = &GroupCell{
			group:  group,
			bucket: g.bucket,
			slowNs: g.slowFor(group),
			bk:     make(map[int64]*GBucket),
		}
		g.cells[group] = c
	}
	return c
}

// dropGroup is the one rule for which group owns a dropped frame:
// forward-path frames belong to their destination group, group-sourced
// feedback (whose Src the leaf accelerator rewrote to the McstID) to its
// source group. ok is false for a unicast-only frame.
func dropGroup(src, dst uint32) (group uint32, ok bool) {
	switch {
	case IsGroupAddr(dst):
		return dst, true
	case IsGroupAddr(src):
		return src, true
	}
	return 0, false
}

// DropFrame books a frame the fabric killed against the group that owns it
// (see dropGroup); a unicast-only frame books nothing. The live drop sinks
// and GroupReportsFromEvents both book through it. Safe on a nil receiver;
// drop paths are cold, so the per-call map lookup is fine.
func (g *GroupStats) DropFrame(src, dst uint32, at sim.Time, frameBytes int64) {
	if g == nil {
		return
	}
	if grp, ok := dropGroup(src, dst); ok {
		g.Cell(grp).Drop(at, frameBytes)
	}
}

// Bucket returns the goodput time-series resolution.
func (g *GroupStats) Bucket() sim.Time { return g.bucket }

// SetObjective declares the SLO objective for one group. Must be called
// before the group's traffic starts: the delivery-latency threshold is
// copied into the group's cell at its first packet.
func (g *GroupStats) SetObjective(group uint32, o SLOObjective) {
	if g.objs == nil {
		g.objs = make(map[uint32]SLOObjective)
	}
	g.objs[group] = o
}

// SetDefaultObjective declares the objective applied to every group without
// a per-group override. Must precede traffic, like SetObjective.
func (g *GroupStats) SetDefaultObjective(o SLOObjective) { g.def = &o }

// ObjectiveFor returns the declared objective for group, falling back to
// the default; ok is false when neither exists.
func (g *GroupStats) ObjectiveFor(group uint32) (SLOObjective, bool) {
	if g == nil {
		return SLOObjective{}, false
	}
	if o, ok := g.objs[group]; ok {
		return o, true
	}
	if g.def != nil {
		return *g.def, true
	}
	return SLOObjective{}, false
}

func (g *GroupStats) slowFor(group uint32) int64 {
	if o, ok := g.ObjectiveFor(group); ok {
		return int64(o.DeliveryP99)
	}
	return 0
}

// GoodputPoint is one point of a group's goodput time-series.
type GoodputPoint struct {
	Start sim.Time // bucket start (inclusive)
	GBucket
}

// GroupReport is the merged, quiescent view of one group.
type GroupReport struct {
	Group          uint32 // the McstID (class-D address)
	DeliveredBytes int64
	Pkts           uint64
	Messages       uint64
	DroppedPkts    uint64
	DroppedBytes   int64
	RetransPkts    uint64
	RetransBytes   int64
	Latency        Summary
	Bucket         sim.Time
	Series         []GoodputPoint // sorted by Start, sparse (empty buckets omitted)

	hist Histogram // merged latency histogram, kept for fleet quantiles
}

// ID returns the small group number (Group - GroupAddrBase).
func (r *GroupReport) ID() uint32 { return r.Group - GroupAddrBase }

// Hist returns a copy of the merged per-message latency histogram that
// shares no buckets with the report.
func (r *GroupReport) Hist() Histogram {
	var h Histogram
	h.Merge(&r.hist)
	return h
}

// Snapshot returns one report per group, sorted by group id. Only
// meaningful while the simulation is quiescent.
func (g *GroupStats) Snapshot() []GroupReport {
	if g == nil {
		return nil
	}
	ids := make([]uint32, 0, len(g.cells))
	for id := range g.cells {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]GroupReport, 0, len(ids))
	for _, id := range ids {
		c := g.cells[id]
		r := GroupReport{
			Group:          id,
			Bucket:         g.bucket,
			DeliveredBytes: c.DeliveredBytes,
			Pkts:           c.Pkts,
			Messages:       c.Messages,
			DroppedPkts:    c.DroppedPkts,
			DroppedBytes:   c.DroppedBytes,
			RetransPkts:    c.RetransPkts,
			RetransBytes:   c.RetransBytes,
		}
		r.hist.Merge(&c.Lat)
		r.Latency = r.hist.Summary()
		idxs := make([]int64, 0, len(c.bk))
		for idx := range c.bk {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		r.Series = make([]GoodputPoint, len(idxs))
		for i, idx := range idxs {
			r.Series[i] = GoodputPoint{Start: sim.Time(idx) * g.bucket, GBucket: *c.bk[idx]}
		}
		out = append(out, r)
	}
	return out
}

// GroupReportsFromEvents rebuilds group reports offline from a canonical
// event stream (cepheus-trace works on JSONL exports, not live clusters).
// Delivered bytes are booked at message completion — KDeliver carries the
// whole message's payload — so packet counts equal message counts and the
// goodput series has message, not packet, granularity. objFor supplies
// per-group objectives for slow-message counting (nil = none declared).
func GroupReportsFromEvents(evs []Event, bucket sim.Time, objFor func(uint32) (SLOObjective, bool)) []GroupReport {
	gs := NewGroupStats(bucket)
	if objFor != nil {
		for i := range evs {
			e := &evs[i]
			var grp uint32
			var ok bool
			switch e.Kind {
			case KDeliver:
				grp, ok = e.Src, IsGroupAddr(e.Src)
			case KRetransmit:
				grp, ok = e.Dst, IsGroupAddr(e.Dst)
			case KDrop:
				grp, ok = dropGroup(e.Src, e.Dst)
			}
			if !ok {
				continue
			}
			if _, ok := gs.objs[grp]; ok {
				continue
			}
			if o, ok := objFor(grp); ok {
				gs.SetObjective(grp, o)
			}
		}
	}
	for i := range evs {
		e := &evs[i]
		switch e.Kind {
		case KDeliver:
			if IsGroupAddr(e.Src) {
				c := gs.Cell(e.Src)
				c.Packet(e.At, e.B)
				c.Message(e.At, e.A)
			}
		case KRetransmit:
			if IsGroupAddr(e.Dst) {
				gs.Cell(e.Dst).Retransmit(e.At, e.B)
			}
		case KDrop:
			gs.DropFrame(e.Src, e.Dst, e.At, e.B)
		}
	}
	return gs.Snapshot()
}

// FairnessReport quantifies how evenly the fabric served its groups.
type FairnessReport struct {
	Groups     int
	TotalBytes int64
	// JainIndex is Jain's fairness index over per-group delivered bytes:
	// 1.0 = perfectly even, 1/n = one group got everything.
	JainIndex float64
	// MaxMinRatio is max/min per-group delivered bytes; 0 when some group
	// delivered nothing (starvation — the ratio would be infinite).
	MaxMinRatio float64
	// FleetP99 is the p99 of the pooled per-message latency distribution;
	// WorstP99 the highest per-group p99, WorstGroup its owner.
	FleetP99   int64
	WorstP99   int64
	WorstGroup uint32
	// P99IsolationGap is WorstP99/FleetP99: 1.0 = the slowest group's tail
	// is indistinguishable from the fleet's, larger = one group's tail is
	// being stretched by its neighbors.
	P99IsolationGap float64
}

// Fairness derives the fairness report from a group snapshot. Returns the
// zero report when fewer than one group exists.
func Fairness(reports []GroupReport) FairnessReport {
	f := FairnessReport{Groups: len(reports)}
	if len(reports) == 0 {
		return f
	}
	var sum, sumSq float64
	minB, maxB := reports[0].DeliveredBytes, reports[0].DeliveredBytes
	var fleet Histogram
	for i := range reports {
		r := &reports[i]
		x := float64(r.DeliveredBytes)
		sum += x
		sumSq += x * x
		f.TotalBytes += r.DeliveredBytes
		if r.DeliveredBytes < minB {
			minB = r.DeliveredBytes
		}
		if r.DeliveredBytes > maxB {
			maxB = r.DeliveredBytes
		}
		fleet.Merge(&r.hist)
		if r.Latency.P99 > f.WorstP99 {
			f.WorstP99 = r.Latency.P99
			f.WorstGroup = r.Group
		}
	}
	if sumSq > 0 {
		f.JainIndex = sum * sum / (float64(len(reports)) * sumSq)
	}
	if minB > 0 {
		f.MaxMinRatio = float64(maxB) / float64(minB)
	}
	f.FleetP99 = fleet.Quantile(0.99)
	if f.FleetP99 > 0 {
		f.P99IsolationGap = float64(f.WorstP99) / float64(f.FleetP99)
	}
	return f
}

// WriteGroupTable renders reports as an aligned text table (the shared
// backend of cepheus-trace groups and the -groups CLI flags).
func WriteGroupTable(w io.Writer, reports []GroupReport) {
	if len(reports) == 0 {
		fmt.Fprintln(w, "no group traffic")
		return
	}
	fmt.Fprintf(w, "%-8s %12s %8s %8s %6s %6s %12s %12s %12s\n",
		"group", "bytes", "pkts", "msgs", "drops", "retx", "p50ns", "p99ns", "maxns")
	for i := range reports {
		r := &reports[i]
		fmt.Fprintf(w, "g%-7d %12d %8d %8d %6d %6d %12d %12d %12d\n",
			r.ID(), r.DeliveredBytes, r.Pkts, r.Messages, r.DroppedPkts,
			r.RetransPkts, r.Latency.P50, r.Latency.P99, r.Latency.Max)
	}
	f := Fairness(reports)
	fmt.Fprintf(w, "fairness: groups=%d jain=%.4f maxmin=%.3f fleet_p99=%dns worst_p99=%dns (g%d) isolation_gap=%.3f\n",
		f.Groups, f.JainIndex, f.MaxMinRatio, f.FleetP99, f.WorstP99, f.WorstGroup-GroupAddrBase, f.P99IsolationGap)
}
