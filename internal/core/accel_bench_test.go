package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// BenchmarkAccelReplicate measures one multicast data packet through a
// leaf accelerator's MFT: the cached MFT lookup, the per-path retransmit
// check, a Clone per path, connection bridging toward each host and
// Output into its egress queue (PFC accounting included). The egresses
// drain to their hosts every 256 packets, which is part of the measured
// time, as in simnet's BenchmarkSwitchTransit.
func BenchmarkAccelReplicate(b *testing.B) {
	for _, paths := range []int{4, 16} {
		b.Run(fmt.Sprintf("paths=%d", paths), func(b *testing.B) {
			eng := sim.New(1)
			sw := simnet.NewSwitch(eng, "leaf")
			sw.PFC = simnet.DefaultPFC()
			a := Attach(sw, DefaultAccelConfig())
			src := simnet.NewHost(eng, "src", 1, 100e9, 600)
			in := sw.AddPort(100e9, 600)
			simnet.Connect(src.NIC, in)
			const id = simnet.MulticastBase + 1
			mft := NewMFT(id, paths+1)
			delivered := 0
			for i := 0; i < paths; i++ {
				h := simnet.NewHost(eng, fmt.Sprint("h", i), simnet.Addr(2+i), 100e9, 600)
				h.Handler = func(*simnet.Packet) { delivered++ }
				pt := sw.AddPort(100e9, 600)
				simnet.Connect(h.NIC, pt)
				e := mft.EnsureEntry(pt.ID)
				e.NextIsHost, e.DstIP, e.DstQP = true, h.IP, uint32(2+i)
			}
			a.mfts[id] = mft
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := simnet.NewPacket()
				p.Type, p.Src, p.Dst, p.SrcQP, p.DstQP = simnet.Data, src.IP, id, 2, 1
				p.PSN, p.Payload = uint64(i), 1024
				a.Handle(sw, p, in)
				if i%256 == 0 {
					eng.Run(sim.MaxTime, nil)
				}
			}
			eng.Run(sim.MaxTime, nil)
			if delivered != b.N*paths {
				b.Fatalf("delivered %d copies, want %d", delivered, b.N*paths)
			}
		})
	}
}

// BenchmarkAccelAckAggregate measures ACK aggregation at a leaf accelerator:
// one op is a round in which every member path acknowledges the next PSN,
// in port order, and the accelerator folds the round into one aggregated
// ACK toward the source. Each member ACK costs the MFT lookup and the
// path's AckPSN update; in an in-order round every ACK lands on the trigger
// port, so each also takes the minimum over all paths. The aggregated ACKs
// drain to the source every 256 rounds, which is part of the measured time.
func BenchmarkAccelAckAggregate(b *testing.B) {
	for _, paths := range []int{4, 16} {
		b.Run(fmt.Sprintf("paths=%d", paths), func(b *testing.B) {
			eng := sim.New(1)
			sw := simnet.NewSwitch(eng, "leaf")
			sw.PFC = simnet.DefaultPFC()
			a := Attach(sw, DefaultAccelConfig())
			src := simnet.NewHost(eng, "src", 1, 100e9, 600)
			acks := 0
			src.Handler = func(*simnet.Packet) { acks++ }
			in := sw.AddPort(100e9, 600)
			simnet.Connect(src.NIC, in)
			const id = simnet.MulticastBase + 1
			mft := NewMFT(id, paths+1)
			mft.AckOutPort, mft.SrcIP, mft.SrcQP = in.ID, src.IP, 1
			members := make([]*simnet.Port, paths)
			for i := range members {
				h := simnet.NewHost(eng, fmt.Sprint("h", i), simnet.Addr(2+i), 100e9, 600)
				pt := sw.AddPort(100e9, 600)
				simnet.Connect(h.NIC, pt)
				e := mft.EnsureEntry(pt.ID)
				e.NextIsHost, e.DstIP, e.DstQP = true, h.IP, uint32(2+i)
				members[i] = pt
			}
			a.mfts[id] = mft
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, pt := range members {
					p := simnet.NewPacket()
					p.Type, p.Src, p.Dst, p.SrcQP, p.DstQP = simnet.Ack, simnet.Addr(2+j), id, uint32(2+j), 1
					p.PSN = uint64(i)
					a.Handle(sw, p, pt)
				}
				if i%256 == 0 {
					eng.Run(sim.MaxTime, nil)
				}
			}
			eng.Run(sim.MaxTime, nil)
			if acks != b.N || a.Stats.AcksEmitted != uint64(b.N) {
				b.Fatalf("source got %d aggregated ACKs (%d emitted), want %d", acks, a.Stats.AcksEmitted, b.N)
			}
		})
	}
}
