package simnet

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkPortForwarding measures per-packet cost through one link. Frames
// come from the packet pool, as in the simulator, so allocs/op is the port
// path's own.
func BenchmarkPortForwarding(b *testing.B) {
	eng := sim.New(1)
	a := NewHost(eng, "a", 1, gbps100, 600)
	c := NewHost(eng, "b", 2, gbps100, 600)
	Connect(a.NIC, c.NIC)
	got := 0
	c.Handler = func(p *Packet) { got++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPacket()
		p.Type, p.Src, p.Dst, p.Payload = Data, 1, 2, 1024
		a.Send(p)
		if i%256 == 0 {
			eng.Run(sim.MaxTime, nil)
		}
	}
	eng.Run(sim.MaxTime, nil)
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkSwitchTransit measures host->switch->host per-packet cost,
// including FIB lookup and PFC accounting, on pooled frames.
func BenchmarkSwitchTransit(b *testing.B) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s0")
	sw.PFC = DefaultPFC()
	h1 := NewHost(eng, "h1", 1, gbps100, 600)
	h2 := NewHost(eng, "h2", 2, gbps100, 600)
	Connect(h1.NIC, sw.AddPort(gbps100, 600))
	Connect(h2.NIC, sw.AddPort(gbps100, 600))
	sw.AddRoute(1, 0)
	sw.AddRoute(2, 1)
	got := 0
	h2.Handler = func(p *Packet) { got++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPacket()
		p.Type, p.Src, p.Dst, p.Payload = Data, 1, 2, 1024
		h1.Send(p)
		if i%256 == 0 {
			eng.Run(sim.MaxTime, nil)
		}
	}
	eng.Run(sim.MaxTime, nil)
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkImpairedPortTx measures per-frame cost through an impaired
// egress: each frame draws a loss fate and a jittered arrival, and takes the
// per-frame path (a serialization-end event plus, for survivors, an arrival
// event) instead of a train. Frames come from the packet pool, so allocs/op
// is what scheduling those events costs.
func BenchmarkImpairedPortTx(b *testing.B) {
	eng := sim.New(1)
	a := NewHost(eng, "a", 1, gbps100, 600)
	c := NewHost(eng, "b", 2, gbps100, 600)
	Connect(a.NIC, c.NIC)
	a.NIC.SetImpairment(Impairment{LossRate: 0.1, Jitter: 200}, 1)
	got := 0
	c.Handler = func(p *Packet) { got++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPacket()
		p.Type, p.Src, p.Dst, p.Payload = Data, 1, 2, 1024
		a.Send(p)
		if i%256 == 0 {
			eng.Run(sim.MaxTime, nil)
		}
	}
	eng.Run(sim.MaxTime, nil)
	if drops := int(a.NIC.Stats.ImpairDrops); got+drops != b.N || (b.N >= 100 && (got == 0 || drops == 0)) {
		b.Fatalf("delivered %d + dropped %d of %d", got, drops, b.N)
	}
}
