package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Span reconstruction folds the canonical (At, Dev, record order) event stream into
// per-message causal spans: requester emission, per-switch ENQ/DEQ and
// replication, per-receiver DELIVER, and the ACK/NACK/RETX epilogue. It is a
// pure function of the event stream, so two runs with the same stream build
// identical spans, byte for byte.
//
// The reconstruction leans on two invariants of the recorded history:
//
//  1. Message ids are globally unique and name their origin (MsgOrigin), so
//     every data event carrying Msg belongs to exactly one span.
//  2. Propagation delay is strictly positive, so a device's first ENQ of a
//     message happens strictly after the upstream device dequeued it. The
//     replication tree falls out: a hop's parent is the device whose latest
//     DEQ of the message precedes the hop's first ENQ.

// Hop is one device's participation in a span: the origin host, or a switch
// that carried (and possibly replicated) the message.
type Hop struct {
	Dev      uint32
	Parent   int // index into Span.Hops; -1 for the origin (or an orphan)
	Depth    int // links from the origin host; 0 at the origin
	ArriveAt sim.Time
	LastDeq  sim.Time
	Enq      int
	Deq      int
	Drops    int
	Fanout   int   // distinct egress ports that enqueued this message
	Bytes    int64 // wire bytes enqueued at this device for this message

	deqs []sim.Time // sorted DEQ times, for parent inference
}

// Delivery is one receiver completing the message.
type Delivery struct {
	Dev     uint32 // receiver host device
	Addr    uint32 // receiver address (the DELIVER event's Dst)
	QP      uint32
	At      sim.Time
	Latency int64
	PSN     uint64
	LastHop int // index into Span.Hops of the final switch; -1 if unknown
	PathLen int // links origin → receiver (LastHop depth + 1); 0 if unknown
}

// Span is the reconstructed life of one message.
type Span struct {
	Msg      uint64
	Origin   uint32 // originating host address (MsgOrigin)
	Dst      uint32 // first emission's destination: group or unicast peer
	SrcQP    uint32
	FirstPSN uint64
	LastPSN  uint64
	Start    sim.Time // first ENQ at the origin host
	End      sim.Time // latest event attributed to the span
	Bytes    int64    // delivered payload bytes (0 if never delivered)
	Hops     []Hop
	Delivers []Delivery
	Retx     int
	Drops    int
	AckRx    int // cumulative ACKs the sender absorbed for this PSN range
	NackRx   int
	Critical int // index into Delivers of the latest delivery; -1 if none
}

// Duration is End - Start.
func (s *Span) Duration() sim.Time { return s.End - s.Start }

// BuildSpans reconstructs one span per message id present in evs. The input
// must be in canonical order (Recorder.Events). Output spans are sorted by
// (Start, Msg); hops by (ArriveAt, Dev); deliveries by (At, Dev).
func BuildSpans(evs []Event) []Span {
	type acc struct {
		span  Span
		hops  map[uint32]*Hop
		seen  bool
		order int
	}
	byMsg := make(map[uint64]*acc)
	get := func(msg uint64) *acc {
		a := byMsg[msg]
		if a == nil {
			a = &acc{hops: make(map[uint32]*Hop), order: len(byMsg)}
			a.span = Span{Msg: msg, Origin: MsgOrigin(msg), Critical: -1}
			byMsg[msg] = a
		}
		return a
	}
	hop := func(a *acc, dev uint32) *Hop {
		h := a.hops[dev]
		if h == nil {
			h = &Hop{Dev: dev, Parent: -1}
			a.hops[dev] = h
		}
		return h
	}
	touch := func(a *acc, at sim.Time) {
		if at > a.span.End {
			a.span.End = at
		}
	}
	notePSN := func(a *acc, psn uint64) {
		if !a.seen || psn < a.span.FirstPSN {
			a.span.FirstPSN = psn
		}
		if !a.seen || psn > a.span.LastPSN {
			a.span.LastPSN = psn
		}
		a.seen = true
	}

	for i := range evs {
		e := &evs[i]
		if e.Msg == 0 {
			continue
		}
		switch e.Kind {
		case KEnqueue, KECNMark:
			a := get(e.Msg)
			h := hop(a, e.Dev)
			if e.Kind == KECNMark {
				touch(a, e.At)
				continue
			}
			if h.Enq == 0 {
				h.ArriveAt = e.At
				if len(a.hops) == 1 {
					// First device to carry the message: the origin host.
					a.span.Start = e.At
					a.span.Dst = e.Dst
					a.span.SrcQP = e.SrcQP
				}
			}
			h.Enq++
			h.Bytes += e.B
			notePSN(a, e.PSN)
			touch(a, e.At)
		case KDequeue:
			a := get(e.Msg)
			h := hop(a, e.Dev)
			h.Deq++
			h.LastDeq = e.At
			h.deqs = append(h.deqs, e.At)
			notePSN(a, e.PSN)
			touch(a, e.At)
		case KDrop:
			a := get(e.Msg)
			a.span.Drops++
			if h := a.hops[e.Dev]; h != nil {
				h.Drops++
			}
			touch(a, e.At)
		case KRetransmit:
			a := get(e.Msg)
			a.span.Retx++
			touch(a, e.At)
		case KDeliver:
			a := get(e.Msg)
			a.span.Delivers = append(a.span.Delivers, Delivery{
				Dev: e.Dev, Addr: e.Dst, QP: e.DstQP, At: e.At,
				Latency: e.A, PSN: e.PSN, LastHop: -1,
			})
			if e.B > a.span.Bytes {
				a.span.Bytes = e.B
			}
			notePSN(a, e.PSN)
			touch(a, e.At)
		}
	}

	// Second pass: per-hop fanout (distinct egress ports) and the
	// (msg, dev, dst) enqueue index that binds deliveries to their final
	// switch — shared across spans so the whole build stays O(events).
	type devPort struct {
		msg  uint64
		dev  uint32
		port int16
	}
	type devDst struct {
		msg uint64
		dev uint32
		dst uint32
	}
	seenPort := make(map[devPort]struct{})
	enqTo := make(map[devDst]struct{})
	for i := range evs {
		e := &evs[i]
		if e.Msg == 0 || e.Kind != KEnqueue {
			continue
		}
		enqTo[devDst{e.Msg, e.Dev, e.Dst}] = struct{}{}
		if e.Port < 0 {
			continue
		}
		k := devPort{e.Msg, e.Dev, e.Port}
		if _, dup := seenPort[k]; dup {
			continue
		}
		seenPort[k] = struct{}{}
		if a := byMsg[e.Msg]; a != nil {
			if h := a.hops[e.Dev]; h != nil {
				h.Fanout++
			}
		}
	}

	// Epilogue attribution: cumulative feedback the origin host absorbed for
	// each span's PSN range. PSN ranges of successive messages on a QP are
	// disjoint, so (flow, PSN) names the message.
	for i := range evs {
		e := &evs[i]
		if e.Kind != KAckRx && e.Kind != KNackRx {
			continue
		}
		for _, a := range byMsg {
			s := &a.span
			if e.Dst != s.Origin || e.DstQP != s.SrcQP || !a.seen {
				continue
			}
			if e.PSN < s.FirstPSN || e.PSN > s.LastPSN {
				continue
			}
			if e.Kind == KAckRx {
				s.AckRx++
			} else {
				s.NackRx++
			}
			touch(a, e.At)
		}
	}

	// Assemble: order hops, infer the replication tree, bind deliveries.
	accs := make([]*acc, 0, len(byMsg))
	for _, a := range byMsg {
		accs = append(accs, a)
	}
	sort.Slice(accs, func(i, j int) bool { return accs[i].order < accs[j].order })

	spans := make([]Span, 0, len(accs))
	for _, a := range accs {
		s := a.span
		for _, h := range a.hops {
			s.Hops = append(s.Hops, *h)
		}
		sort.Slice(s.Hops, func(i, j int) bool {
			x, y := &s.Hops[i], &s.Hops[j]
			if x.ArriveAt != y.ArriveAt {
				return x.ArriveAt < y.ArriveAt
			}
			return x.Dev < y.Dev
		})
		inferTree(s.Hops)
		msg := s.Msg
		bindDeliveries(&s, func(dev, dst uint32) bool {
			_, ok := enqTo[devDst{msg, dev, dst}]
			return ok
		})
		sort.Slice(s.Delivers, func(i, j int) bool {
			x, y := &s.Delivers[i], &s.Delivers[j]
			if x.At != y.At {
				return x.At < y.At
			}
			return x.Dev < y.Dev
		})
		for i := range s.Delivers {
			d := &s.Delivers[i]
			if s.Critical < 0 || d.At > s.Delivers[s.Critical].At {
				s.Critical = i
			}
		}
		for i := range s.Hops {
			s.Hops[i].deqs = nil
		}
		spans = append(spans, s)
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Msg < spans[j].Msg
	})
	return spans
}

// inferTree assigns each hop's parent: the hop whose latest DEQ of the
// message strictly precedes this hop's first ENQ (latest such DEQ wins;
// ties break toward the smaller device id). Hops are in (ArriveAt, Dev)
// order, so a parent always precedes its children and depths resolve in one
// pass.
func inferTree(hops []Hop) {
	for i := 1; i < len(hops); i++ {
		h := &hops[i]
		best, bestAt := -1, sim.Time(-1)
		for j := 0; j < i; j++ {
			g := &hops[j]
			// Latest DEQ at g strictly before h's arrival.
			ds := g.deqs
			lo, hi := 0, len(ds)
			for lo < hi {
				mid := (lo + hi) / 2
				if ds[mid] < h.ArriveAt {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == 0 {
				continue
			}
			if at := ds[lo-1]; at > bestAt {
				bestAt, best = at, j
			}
		}
		h.Parent = best
		if best >= 0 {
			h.Depth = hops[best].Depth + 1
		}
	}
}

// bindDeliveries locates each delivery's final switch: the deepest hop that
// enqueued the message toward the receiver's address (the leaf rewrites the
// clone's destination to the member, so only the last switch matches for
// multicast; for unicast every hop matches and the deepest is the last).
// enqueuedTo reports whether dev enqueued this span's message toward dst.
func bindDeliveries(s *Span, enqueuedTo func(dev, dst uint32) bool) {
	for i := range s.Delivers {
		d := &s.Delivers[i]
		for j := range s.Hops {
			h := &s.Hops[j]
			if !enqueuedTo(h.Dev, d.Addr) {
				continue
			}
			if d.LastHop < 0 || h.Depth > s.Hops[d.LastHop].Depth {
				d.LastHop = j
			}
		}
		if d.LastHop >= 0 {
			d.PathLen = s.Hops[d.LastHop].Depth + 1
		}
	}
}

// MsgString renders a message id as origin#counter, the human-readable form
// used by span exports.
func MsgString(msg uint64) string {
	return fmt.Sprintf("%s#%d", AddrString(MsgOrigin(msg)), uint32(msg))
}

// WriteSpans renders spans in a fixed, deterministic text form. names maps
// device ids to names (Recorder.DevName, or the CLI's table).
func WriteSpans(w io.Writer, spans []Span, names func(uint32) string) error {
	bw := bufio.NewWriter(w)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(bw, "span msg=%s qp=%d dst=%s psn=[%d,%d] bytes=%d start=%d end=%d dur=%d\n",
			MsgString(s.Msg), s.SrcQP, AddrString(s.Dst), s.FirstPSN, s.LastPSN,
			s.Bytes, int64(s.Start), int64(s.End), int64(s.Duration()))
		for j := range s.Hops {
			h := &s.Hops[j]
			parent := "-"
			if h.Parent >= 0 {
				parent = names(s.Hops[h.Parent].Dev)
			}
			fmt.Fprintf(bw, "  hop %-12s depth=%d parent=%-12s arrive=%-12d enq=%d deq=%d drop=%d fanout=%d bytes=%d\n",
				names(h.Dev), h.Depth, parent, int64(h.ArriveAt), h.Enq, h.Deq, h.Drops, h.Fanout, h.Bytes)
		}
		for j := range s.Delivers {
			d := &s.Delivers[j]
			via := "-"
			if d.LastHop >= 0 {
				via = names(s.Hops[d.LastHop].Dev)
			}
			fmt.Fprintf(bw, "  deliver %-8s at=%-12d lat=%-10d psn=%d path=%d via=%s\n",
				names(d.Dev), int64(d.At), d.Latency, d.PSN, d.PathLen, via)
		}
		fmt.Fprintf(bw, "  epilogue retx=%d drops=%d ack-rx=%d nack-rx=%d\n",
			s.Retx, s.Drops, s.AckRx, s.NackRx)
		if s.Critical >= 0 {
			d := &s.Delivers[s.Critical]
			fmt.Fprintf(bw, "  critical %s lat=%d path: %s\n",
				names(d.Dev), d.Latency, criticalPath(s, d, names))
		}
	}
	return bw.Flush()
}

// criticalPath renders the hop chain origin → ... → receiver for the
// critical (latest) delivery.
func criticalPath(s *Span, d *Delivery, names func(uint32) string) string {
	var chain []string
	for j := d.LastHop; j >= 0; j = s.Hops[j].Parent {
		chain = append(chain, names(s.Hops[j].Dev))
	}
	// chain is leaf→origin; reverse and append the receiver.
	out := ""
	for i := len(chain) - 1; i >= 0; i-- {
		out += chain[i] + " > "
	}
	return out + names(d.Dev)
}

// TimelineOptions selects and scales a timeline rendering.
type TimelineOptions struct {
	From  sim.Time
	To    sim.Time // 0 = last event
	Width int      // columns; 0 = 96
	Msg   uint64   // 0 = all messages
	Group uint32   // 0 = all destinations; otherwise require Dst == Group
}

// timelineGlyph maps an event to its lifeline character and priority
// (higher priority overwrites lower when events share a column).
func timelineGlyph(k Kind) (byte, int) {
	switch k {
	case KEnqueue:
		return 'E', 1
	case KDequeue:
		return 'D', 2
	case KECNMark:
		return 'e', 3
	case KPFCPause, KPFCResume:
		return 'P', 3
	case KCNPTx, KCNPRx:
		return 'C', 4
	case KAckTx, KAckRx:
		return 'A', 5
	case KNackTx, KNackRx:
		return 'N', 6
	case KRetransmit:
		return 'R', 7
	case KMFTInstall, KMFTRebuild, KMFTWipe, KMFTStale, KMFTNack:
		return 'M', 8
	case KPSNSync:
		return 'S', 8
	case KDrop:
		return 'X', 9
	case KDeliver:
		return '*', 10
	}
	return '.', 0
}

// WriteTimeline renders a fixed-width lifeline per device for the selected
// message/group/time window: one row per device, one column per time slice,
// the highest-priority event in each slice as its glyph. Deterministic —
// device rows are in device-id order.
func WriteTimeline(w io.Writer, evs []Event, names func(uint32) string, opt TimelineOptions) error {
	width := opt.Width
	if width <= 0 {
		width = 96
	}
	from, to := opt.From, opt.To
	if to == 0 {
		for i := range evs {
			if evs[i].At > to {
				to = evs[i].At
			}
		}
	}
	if to <= from {
		to = from + 1
	}
	span := int64(to - from)
	perCol := (span + int64(width) - 1) / int64(width)
	if perCol < 1 {
		perCol = 1
	}

	keep := func(e *Event) bool {
		if e.At < from || e.At > to {
			return false
		}
		if opt.Msg != 0 && e.Msg != opt.Msg {
			return false
		}
		if opt.Group != 0 && e.Dst != opt.Group {
			return false
		}
		return true
	}

	rows := make(map[uint32][]byte)
	prios := make(map[uint32][]int)
	var devs []uint32
	for i := range evs {
		e := &evs[i]
		if !keep(e) {
			continue
		}
		row := rows[e.Dev]
		if row == nil {
			row = make([]byte, width)
			for j := range row {
				row[j] = '-'
			}
			rows[e.Dev] = row
			prios[e.Dev] = make([]int, width)
			devs = append(devs, e.Dev)
		}
		col := int(int64(e.At-from) / perCol)
		if col >= width {
			col = width - 1
		}
		g, p := timelineGlyph(e.Kind)
		if p > prios[e.Dev][col] {
			row[col] = g
			prios[e.Dev][col] = p
		}
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "timeline %d..%d ns, %d cols, %d ns/col\n", int64(from), int64(to), width, perCol)
	fmt.Fprintf(bw, "legend: E enq  D deq  e ecn  P pfc  A ack  N nack  C cnp  R retx  M mft  S psn-sync  X drop  * deliver\n")
	for _, d := range devs {
		fmt.Fprintf(bw, "%-12s |%s|\n", names(d), rows[d])
	}
	return bw.Flush()
}
