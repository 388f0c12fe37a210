package simnet_test

import (
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// dropRig is host a -> [in] switch (with accelerator) [out] -> host b, with
// the switch and its ports traced and group attribution on.
type dropRig struct {
	eng     *sim.Engine
	gs      *obs.GroupStats
	sw      *simnet.Switch
	acc     *core.Accel
	in, out *simnet.Port
	a, b    *simnet.Host
	drops   []obs.Event // KDrop events recorded once armed
	armed   bool
}

const dropGrp = simnet.MulticastBase + 7

func newDropRig() *dropRig {
	eng := sim.New(1)
	r := &dropRig{eng: eng, gs: obs.NewGroupStats(0)}
	r.sw = simnet.NewSwitch(eng, "sw")
	r.acc = core.Attach(r.sw, core.DefaultAccelConfig())
	r.a = simnet.NewHost(eng, "a", 1, gbps100, 600)
	r.b = simnet.NewHost(eng, "b", 2, gbps100, 600)
	r.in, r.out = r.sw.AddPort(gbps100, 600), r.sw.AddPort(gbps100, 600)
	simnet.Connect(r.a.NIC, r.in)
	simnet.Connect(r.out, r.b.NIC)
	rec := obs.NewRecorder(0)
	rec.Attach(func(e *obs.Event) {
		if r.armed && e.Kind == obs.KDrop {
			r.drops = append(r.drops, *e)
		}
	})
	r.sw.SetTracer(rec.NewTracer("sw"))
	r.sw.SetGroupStats(r.gs)
	return r
}

const gbps100 = 100e9

// data is a forward-path multicast frame: its group is its destination.
func (r *dropRig) data() *simnet.Packet {
	p := simnet.NewPacket()
	p.Type, p.Src, p.Dst, p.SrcQP, p.DstQP, p.PSN, p.Payload = simnet.Data, r.a.IP, dropGrp, 3, 4, 5, 1000
	return p
}

// feedback is group-sourced feedback (Src rewritten to the McstID): its
// group is its source.
func (r *dropRig) feedback() *simnet.Packet {
	p := simnet.NewPacket()
	p.Type, p.Src, p.Dst, p.SrcQP, p.DstQP, p.PSN = simnet.Ack, dropGrp, r.a.IP, 4, 3, 5
	return p
}

// pause stops out's egress with a PFC PAUSE, so frames sent to it queue.
func (r *dropRig) pause() {
	f := simnet.NewPacket()
	f.Type = simnet.Pause
	r.sw.Receive(f, r.out)
}

// counters names every drop counter in the rig.
func (r *dropRig) counters() map[string]uint64 {
	m := map[string]uint64{
		"sw.DataDrops":          r.sw.DataDrops,
		"sw.CtrlDrops":          r.sw.CtrlDrops,
		"sw.CrashDrops":         r.sw.CrashDrops,
		"sw.NoRouteDrops":       r.sw.NoRouteDrops,
		"acc.UnknownGroupDrops": r.acc.Stats.UnknownGroupDrops,
	}
	for name, pt := range map[string]*simnet.Port{"a": r.a.NIC, "in": r.in, "out": r.out, "b": r.b.NIC} {
		s := pt.Stats
		m[name+".Drops"] = s.Drops
		m[name+".FaultDrops"] = s.FaultDrops
		m[name+".ImpairDrops"] = s.ImpairDrops
		m[name+".CorruptDrops"] = s.CorruptDrops
		m[name+".StormDrops"] = s.StormDrops
	}
	return m
}

// groupDrops sums dropped frames and bytes per group.
func (r *dropRig) groupDrops() map[uint32][2]int64 {
	m := map[uint32][2]int64{}
	for _, g := range r.gs.Snapshot() {
		m[g.Group] = [2]int64{int64(g.DroppedPkts), g.DroppedBytes}
	}
	return m
}

// TestDropSinks drives every drop reason through the sink that owns it, the
// Port's or the Switch's, and checks that the frame was booked exactly once
// on each of the four paths: one named counter moved, one KDrop was recorded
// with the reason, port and A of the drop site, the owning group was booked
// one drop of the frame's size, and the frame went back to the pool.
// Stats.Drops counts every frame killed at or in a queue, so the two queue-
// side fault drops (enqueue while down, purge) also move it beside
// FaultDrops.
//
// It stays serial, like the pool tests: the pool is process-wide, so a
// parallel test could draw the released frame before the check.
func TestDropSinks(t *testing.T) {
	type tc struct {
		name   string
		reason obs.Reason
		setup  func(r *dropRig)
		pkt    func(r *dropRig) *simnet.Packet
		kill   func(r *dropRig, p *simnet.Packet)
		port   int      // recorded port: the switch's in (0) or out (1)
		queued bool     // recorded A is one queued data frame, not 0
		moved  []string // counters that move by one
	}
	const in, out = 0, 1
	cases := []tc{
		{
			name: "qlimit", reason: obs.RQueueLimit,
			setup: func(r *dropRig) {
				r.pause()
				r.out.Send(r.data()) // occupies the paused queue
				r.out.QueueLimit = r.out.QueuedBytes() + 1
			},
			pkt:  (*dropRig).data,
			kill: func(r *dropRig, p *simnet.Packet) { r.out.Send(p) },
			port: out, queued: true,
			moved: []string{"out.Drops"},
		},
		{
			name: "fault/enqueue-while-down", reason: obs.RFault,
			setup: func(r *dropRig) { r.out.SetDown(true) },
			pkt:   (*dropRig).data,
			kill:  func(r *dropRig, p *simnet.Packet) { r.out.Send(p) },
			port:  out,
			moved: []string{"out.FaultDrops", "out.Drops"},
		},
		{
			name: "fault/purge", reason: obs.RFault,
			setup: func(r *dropRig) { r.pause() },
			pkt:   (*dropRig).data,
			kill: func(r *dropRig, p *simnet.Packet) {
				r.out.Send(p)
				r.out.SetDown(true)
			},
			// purge records the depth before it empties the queue.
			port: out, queued: true,
			moved: []string{"out.FaultDrops", "out.Drops"},
		},
		{
			name: "fault/epoch-mismatch", reason: obs.RFault,
			pkt: (*dropRig).data,
			kill: func(r *dropRig, p *simnet.Packet) {
				r.out.Send(p) // on the wire to b
				r.b.NIC.SetDown(true)
				r.b.NIC.SetDown(false)
				r.eng.Run(sim.MaxTime, nil)
			},
			port:  out,
			moved: []string{"out.FaultDrops"},
		},
		{
			name: "loss", reason: obs.RLoss,
			setup: func(r *dropRig) { r.sw.LossRate = 1 },
			pkt:   (*dropRig).data,
			kill:  func(r *dropRig, p *simnet.Packet) { r.sw.Output(p, r.out.ID, r.in) },
			port:  out,
			moved: []string{"sw.DataDrops"},
		},
		{
			name: "ctrl-loss", reason: obs.RCtrlLoss,
			setup: func(r *dropRig) { r.sw.ControlLossRate = 1 },
			pkt:   (*dropRig).feedback,
			kill:  func(r *dropRig, p *simnet.Packet) { r.sw.Output(p, r.out.ID, r.in) },
			port:  out,
			moved: []string{"sw.CtrlDrops"},
		},
		{
			name: "crash/ingress", reason: obs.RCrash,
			setup: func(r *dropRig) { r.sw.Crash() },
			pkt:   (*dropRig).data,
			kill:  func(r *dropRig, p *simnet.Packet) { r.sw.Receive(p, r.in) },
			port:  in,
			moved: []string{"sw.CrashDrops"},
		},
		{
			name: "crash/egress", reason: obs.RCrash,
			setup: func(r *dropRig) { r.sw.Crash() },
			pkt:   (*dropRig).feedback,
			kill:  func(r *dropRig, p *simnet.Packet) { r.sw.Output(p, r.out.ID, nil) },
			port:  out,
			moved: []string{"sw.CrashDrops"},
		},
		{
			name: "no-route", reason: obs.RNoRoute,
			pkt:   (*dropRig).feedback,
			kill:  func(r *dropRig, p *simnet.Packet) { r.sw.Forward(p, r.in) },
			port:  in,
			moved: []string{"sw.NoRouteDrops"},
		},
		{
			name: "impair-loss", reason: obs.RImpairLoss,
			setup: func(r *dropRig) { r.out.SetImpairment(simnet.Impairment{LossRate: 1}, 1) },
			pkt:   (*dropRig).data,
			kill: func(r *dropRig, p *simnet.Packet) {
				r.out.Send(p)
				r.eng.Run(sim.MaxTime, nil)
			},
			port:  out,
			moved: []string{"out.ImpairDrops"},
		},
		{
			name: "corrupt", reason: obs.RCorrupt,
			setup: func(r *dropRig) { r.out.SetImpairment(simnet.Impairment{CorruptRate: 1}, 1) },
			pkt:   (*dropRig).data,
			kill: func(r *dropRig, p *simnet.Packet) {
				r.out.Send(p)
				r.eng.Run(sim.MaxTime, nil)
			},
			port:  out,
			moved: []string{"out.CorruptDrops"},
		},
		{
			name: "ctrl-storm", reason: obs.RStormLoss,
			setup: func(r *dropRig) { r.out.SetImpairment(simnet.Impairment{CtrlLossRate: 1}, 1) },
			pkt:   (*dropRig).feedback,
			kill: func(r *dropRig, p *simnet.Packet) {
				r.out.Send(p)
				r.eng.Run(sim.MaxTime, nil)
			},
			port:  out,
			moved: []string{"out.StormDrops"},
		},
		{
			name: "unknown-group", reason: obs.RUnknownGroup,
			// A first unknown-group frame arms the accelerator's NACK
			// holdoff, so the dropped frame sends no NACK that could draw
			// it straight back out of the pool.
			setup: func(r *dropRig) { r.sw.Receive(r.data(), r.in) },
			pkt:   (*dropRig).data,
			kill:  func(r *dropRig, p *simnet.Packet) { r.sw.Receive(p, r.in) },
			port:  in,
			moved: []string{"acc.UnknownGroupDrops"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newDropRig()
			if c.setup != nil {
				c.setup(r)
			}
			before, groupsBefore := r.counters(), r.groupDrops()
			p := c.pkt(r)
			size, src, dst := int64(p.Size()), uint32(p.Src), uint32(p.Dst)
			var wantA int64
			if c.queued {
				wantA = size // the queue holds one data frame, p's size
			}
			r.armed = true
			c.kill(r, p)

			want := maps.Clone(before)
			for _, k := range c.moved {
				want[k]++
			}
			if got := r.counters(); !maps.Equal(got, want) {
				for k := range got {
					if got[k] != before[k] {
						t.Logf("%s moved by %d", k, got[k]-before[k])
					}
				}
				t.Errorf("counters moved wrongly; want exactly %v to move by one", c.moved)
			}

			if len(r.drops) != 1 {
				t.Fatalf("recorded %d KDrop events, want 1: %+v", len(r.drops), r.drops)
			}
			e := r.drops[0]
			if e.Reason != c.reason || e.Port != int16(c.port) || e.A != wantA || e.B != size || e.Src != src || e.Dst != dst {
				t.Errorf("KDrop = reason %s port %d A %d B %d src %#x dst %#x; want %s port %d A %d B %d src %#x dst %#x",
					e.Reason, e.Port, e.A, e.B, e.Src, e.Dst, c.reason, c.port, wantA, size, src, dst)
			}

			wantG := maps.Clone(groupsBefore)
			g := wantG[uint32(dropGrp)]
			wantG[uint32(dropGrp)] = [2]int64{g[0] + 1, g[1] + size}
			if got := r.groupDrops(); !maps.Equal(got, wantG) {
				t.Errorf("group drops = %v, want %v", got, wantG)
			}

			if !simnet.InPool(p) {
				t.Error("dropped frame was not released to the pool")
			}
		})
	}
}
