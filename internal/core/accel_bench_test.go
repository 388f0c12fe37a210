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
			sw.PFC = simnet.DefaultPFC
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
