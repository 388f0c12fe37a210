package simnet

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkPortForwarding measures per-packet cost through one link.
func BenchmarkPortForwarding(b *testing.B) {
	eng := sim.New(1)
	a := NewHost(eng, "a", 1, gbps100, 600)
	c := NewHost(eng, "b", 2, gbps100, 600)
	Connect(a.NIC, c.NIC)
	got := 0
	c.Handler = func(p *Packet) { got++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 1024})
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
// including FIB lookup and PFC accounting.
func BenchmarkSwitchTransit(b *testing.B) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s0")
	sw.PFC = DefaultPFC
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
		h1.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 1024})
		if i%256 == 0 {
			eng.Run(sim.MaxTime, nil)
		}
	}
	eng.Run(sim.MaxTime, nil)
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}
