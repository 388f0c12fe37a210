package roce

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// BenchmarkQPIngest measures the responder's in-order data path: QP demux,
// PSN check, ingest with its delivery-latency Observe, message completion
// every fourth packet, and the coalesced ACK it emits. The ACKs drain
// through the ToR every 256 packets, which is part of the measured time.
func BenchmarkQPIngest(b *testing.B) {
	e := newPairEnv(b, DefaultConfig())
	e.eng.RunUntil(10 * sim.Microsecond) // stamps below are then positive
	const perMsg = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := simnet.NewPacket()
		p.Type, p.Src, p.Dst = simnet.Data, e.ra.Host.IP, e.rb.Host.IP
		p.SrcQP, p.DstQP, p.PSN = e.qa.QPN, e.qb.QPN, uint64(i)
		p.Payload, p.MsgID, p.Last = 1024, uint64(i/perMsg), i%perMsg == perMsg-1
		p.Stamp = e.eng.Now() - 2*sim.Microsecond
		e.rb.receive(p)
		p.Release()
		if i%256 == 0 {
			e.eng.Run(sim.MaxTime, nil)
		}
	}
	e.eng.Run(sim.MaxTime, nil)
	if got := e.qb.RqPSN(); got != uint64(b.N) {
		b.Fatalf("responder accepted %d of %d packets", got, b.N)
	}
	if n := e.qb.LatHist.Count(); n != uint64(b.N) {
		b.Fatalf("latency histogram holds %d of %d samples", n, b.N)
	}
}

// BenchmarkQPEmit measures the requester's emit path per data packet: the
// pacing timer firing, next-PSN selection, WQE lookup, packet build, NIC
// enqueue and the train that serializes it, pacing and RTO bookkeeping, and
// the re-arm of the same timer. The peer is a bare host that only counts
// arrivals, so no responder or ACK work is measured; the window and RTO are
// set out of reach because nothing is ever acknowledged.
func BenchmarkQPEmit(b *testing.B) {
	cfg := DefaultConfig()
	cfg.WindowPkts = 1 << 30
	cfg.RetxTimeout = 1000 * sim.Second
	eng := sim.New(1)
	n := topo.Testbed(eng, 2)
	qp := NewRNIC(n.Hosts[0], cfg).CreateQP()
	sink := n.Hosts[1]
	delivered := 0
	sink.Handler = func(*simnet.Packet) { delivered++ }
	qp.Connect(sink.IP, 1)
	b.ReportAllocs()
	b.ResetTimer()
	qp.enqueueWQE(b.N*cfg.MTU, false, 0, 0, nil)
	qp.trySend()
	eng.Run(sim.MaxTime, func() bool { return delivered == b.N })
	if delivered != b.N || qp.nic.Stats.DataSent != uint64(b.N) {
		b.Fatalf("delivered %d, sent %d, want %d", delivered, qp.nic.Stats.DataSent, b.N)
	}
}
