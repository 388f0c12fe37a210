package simnet

import (
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/sim"
)

const gbps100 = 100e9

func newPair(t *testing.T) (*sim.Engine, *Host, *Host) {
	t.Helper()
	eng := sim.New(1)
	a := NewHost(eng, "a", 1, gbps100, 600*sim.Nanosecond)
	b := NewHost(eng, "b", 2, gbps100, 600*sim.Nanosecond)
	Connect(a.NIC, b.NIC)
	return eng, a, b
}

func TestAddrMulticast(t *testing.T) {
	if Addr(10).IsMulticast() {
		t.Error("unicast address classified as multicast")
	}
	if !MulticastBase.IsMulticast() {
		t.Error("MulticastBase not classified as multicast")
	}
	if !(MulticastBase + 1234).IsMulticast() {
		t.Error("McstID not classified as multicast")
	}
}

func TestPacketSize(t *testing.T) {
	p := &Packet{Type: Data, Payload: 1024}
	if p.Size() != 1024+WireOverhead {
		t.Fatalf("data size = %d", p.Size())
	}
	ack := &Packet{Type: Ack}
	if ack.Size() != CtrlPacketBytes {
		t.Fatalf("ack size = %d", ack.Size())
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Type: Data, Dst: 5, DstQP: 9, Payload: 100}
	q := p.Clone()
	q.Dst = 7
	q.DstQP = 11
	if p.Dst != 5 || p.DstQP != 9 {
		t.Fatal("clone aliases the original header")
	}
}

func TestHostToHostDelivery(t *testing.T) {
	eng, a, b := newPair(t)
	delivered := false
	var at sim.Time
	// The host releases the packet after the handler returns: copy what the
	// assertion needs instead of retaining the pointer.
	b.Handler = func(p *Packet) { delivered = true; at = eng.Now() }
	p := &Packet{Type: Data, Src: a.IP, Dst: b.IP, Payload: 1024}
	wantTx := a.NIC.TxTime(p.Size())
	a.Send(p)
	eng.Run(sim.MaxTime, nil)
	if !delivered {
		t.Fatal("packet not delivered")
	}
	want := wantTx + 600
	if at != want {
		t.Fatalf("delivered at %v, want %v (tx %v + prop 600ns)", at, want, wantTx)
	}
}

func TestSerializationBackToBack(t *testing.T) {
	eng, a, b := newPair(t)
	var times []sim.Time
	b.Handler = func(p *Packet) { times = append(times, eng.Now()) }
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Type: Data, Src: a.IP, Dst: b.IP, Payload: 1024})
	}
	eng.Run(sim.MaxTime, nil)
	if len(times) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(times))
	}
	tx := a.NIC.TxTime(1024 + WireOverhead)
	for i := 1; i < 3; i++ {
		if d := times[i] - times[i-1]; d != tx {
			t.Fatalf("inter-arrival %v, want serialization %v", d, tx)
		}
	}
}

func TestSwitchForwarding(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s0")
	h1 := NewHost(eng, "h1", 1, gbps100, 600)
	h2 := NewHost(eng, "h2", 2, gbps100, 600)
	Connect(h1.NIC, sw.AddPort(gbps100, 600))
	Connect(h2.NIC, sw.AddPort(gbps100, 600))
	sw.AddRoute(1, 0)
	sw.AddRoute(2, 1)
	var got int
	h2.Handler = func(p *Packet) { got++ }
	h1.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 256})
	eng.Run(sim.MaxTime, nil)
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
}

func TestSwitchNoRouteDrops(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s0")
	h1 := NewHost(eng, "h1", 1, gbps100, 600)
	Connect(h1.NIC, sw.AddPort(gbps100, 600))
	h1.Send(&Packet{Type: Data, Src: 1, Dst: 99, Payload: 64})
	eng.Run(sim.MaxTime, nil)
	if sw.NoRouteDrops != 1 {
		t.Fatalf("NoRouteDrops = %d, want 1 (unroutable packets must be dropped, not forwarded)", sw.NoRouteDrops)
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	p1 := &Packet{Src: 1, Dst: 2, SrcQP: 10, DstQP: 20}
	p2 := &Packet{Src: 1, Dst: 2, SrcQP: 10, DstQP: 20}
	if flowHash(p1) != flowHash(p2) {
		t.Fatal("same flow hashed differently")
	}
	p3 := &Packet{Src: 1, Dst: 2, SrcQP: 11, DstQP: 20}
	if flowHash(p1) == flowHash(p3) {
		t.Log("different flows collided (allowed, but suspicious for FNV)")
	}
}

func TestQueueDropTail(t *testing.T) {
	eng := sim.New(1)
	// Slow egress so the queue actually builds.
	a := NewHost(eng, "a", 1, 1e9, 600)
	b := NewHost(eng, "b", 2, 1e9, 600)
	Connect(a.NIC, b.NIC)
	a.NIC.QueueLimit = 3000
	delivered := 0
	b.Handler = func(p *Packet) { delivered++ }
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 1000})
	}
	eng.Run(sim.MaxTime, nil)
	if a.NIC.Stats.Drops == 0 {
		t.Fatal("no drops despite tiny queue")
	}
	if delivered+int(a.NIC.Stats.Drops) != 10 {
		t.Fatalf("delivered %d + drops %d != 10", delivered, a.NIC.Stats.Drops)
	}
}

func TestECNMarking(t *testing.T) {
	eng := sim.New(1)
	a := NewHost(eng, "a", 1, 1e9, 600) // 1 Gbps: queue builds fast
	b := NewHost(eng, "b", 2, 1e9, 600)
	Connect(a.NIC, b.NIC)
	a.NIC.ECN = ECNConfig{Enabled: true, KminBytes: 2000, KmaxBytes: 8000, PMax: 1.0}
	marks := 0
	b.Handler = func(p *Packet) {
		if p.ECN {
			marks++
		}
	}
	for i := 0; i < 50; i++ {
		a.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 1000})
	}
	eng.Run(sim.MaxTime, nil)
	if marks == 0 {
		t.Fatal("no ECN marks despite saturated queue")
	}
	if a.NIC.Stats.ECNMarks != uint64(marks) {
		t.Fatalf("stats marks %d != observed %d", a.NIC.Stats.ECNMarks, marks)
	}
}

func TestPFCPauseResume(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s0")
	sw.PFC = PFCConfig{Enabled: true, XOffBytes: 20000, XOnBytes: 10000}
	src := NewHost(eng, "src", 1, gbps100, 600)
	dst := NewHost(eng, "dst", 2, 1e9, 600) // slow egress builds switch queue
	pSrc := sw.AddPort(gbps100, 600)
	pDst := sw.AddPort(1e9, 600)
	Connect(src.NIC, pSrc)
	Connect(dst.NIC, pDst)
	sw.AddRoute(1, 0)
	sw.AddRoute(2, 1)
	pDst.QueueLimit = 1 << 30 // PFC, not drops, must do the work
	delivered := 0
	dst.Handler = func(p *Packet) { delivered++ }
	n := 200
	for i := 0; i < n; i++ {
		src.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 1000})
	}
	eng.Run(sim.MaxTime, nil)
	if delivered != n {
		t.Fatalf("delivered %d, want %d (lossless)", delivered, n)
	}
	if pSrc.Stats.PauseSent == 0 {
		t.Fatal("no PAUSE sent despite 100:1 rate mismatch")
	}
	if pSrc.Stats.ResumeSent == 0 {
		t.Fatal("no RESUME sent")
	}
	if pDst.Stats.Drops != 0 {
		t.Fatalf("%d drops under PFC", pDst.Stats.Drops)
	}
}

func TestPFCPreventsDropsWithFiniteQueue(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s0")
	sw.PFC = PFCConfig{Enabled: true, XOffBytes: 64 << 10, XOnBytes: 32 << 10}
	src := NewHost(eng, "src", 1, gbps100, 600)
	dst := NewHost(eng, "dst", 2, 10e9, 600)
	pSrc := sw.AddPort(gbps100, 600)
	pDst := sw.AddPort(10e9, 600)
	Connect(src.NIC, pSrc)
	Connect(dst.NIC, pDst)
	sw.AddRoute(1, 0)
	sw.AddRoute(2, 1)
	// Queue limit above XOFF plus in-flight headroom.
	pDst.QueueLimit = 256 << 10
	delivered := 0
	dst.Handler = func(p *Packet) { delivered++ }
	n := 2000
	for i := 0; i < n; i++ {
		src.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 1000})
	}
	eng.Run(sim.MaxTime, nil)
	if delivered != n {
		t.Fatalf("delivered %d, want %d", delivered, n)
	}
	if pDst.Stats.Drops != 0 {
		t.Fatalf("%d drops despite PFC headroom", pDst.Stats.Drops)
	}
}

// TestPFCResumeReentryKeepsTrainsSerial: two egress ports of one switch,
// each holding frames that arrived on the other, both ingress accounts
// paused. Committing a train on one port releases the other's ingress
// account (RESUME), whose own train releases this port's ingress account in
// turn, re-entering this port's transmitter mid-commit. The re-entrant call
// must see the link busy, not form a second train on top of the first.
func TestPFCResumeReentryKeepsTrainsSerial(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s0")
	sw.PFC = PFCConfig{Enabled: true, XOffBytes: 4000, XOnBytes: 2000}
	h1 := NewHost(eng, "h1", 1, gbps100, 600)
	h2 := NewHost(eng, "h2", 2, gbps100, 600)
	p1, p2 := sw.AddPort(gbps100, 600), sw.AddPort(gbps100, 600)
	Connect(h1.NIC, p1)
	Connect(h2.NIC, p2)
	sw.AddRoute(1, 0)
	sw.AddRoute(2, 1)
	var last [3]sim.Time
	got := 0
	arrive := func(h int) func(*Packet) {
		return func(p *Packet) {
			if now := eng.Now(); now <= last[h] {
				t.Errorf("h%d: arrival at %v not after previous %v", h, now, last[h])
			}
			last[h] = eng.Now()
			got++
		}
	}
	h1.Handler, h2.Handler = arrive(1), arrive(2)
	data := func(src, dst Addr) *Packet {
		return &Packet{Type: Data, Src: src, Dst: dst, Payload: 1000}
	}

	// p1 serializes one frame until T; p2 is held by its peer.
	p1.Send(data(2, 1))
	T := p1.busyUntil
	// Unpause p2 at exactly T, ordered before p1's own train boundary.
	eng.Schedule(T, func() { p2.setPaused(false) })
	p2.setPaused(true)
	const n = 6
	for i := 0; i < n; i++ {
		sw.Output(data(1, 2), 1, p1) // queued on held p2; pauses ingress p1
		sw.Output(data(2, 1), 0, p2) // queued on busy p1; pauses ingress p2
	}
	eng.Run(sim.MaxTime, nil)
	if want := 2*n + 1; got != want {
		t.Fatalf("delivered %d frames, want %d", got, want)
	}
}

func TestLossInjection(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s0")
	sw.LossRate = 0.5
	h1 := NewHost(eng, "h1", 1, gbps100, 600)
	h2 := NewHost(eng, "h2", 2, gbps100, 600)
	Connect(h1.NIC, sw.AddPort(gbps100, 600))
	Connect(h2.NIC, sw.AddPort(gbps100, 600))
	sw.AddRoute(1, 0)
	sw.AddRoute(2, 1)
	delivered := 0
	h2.Handler = func(p *Packet) { delivered++ }
	n := 1000
	for i := 0; i < n; i++ {
		h1.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 64})
	}
	eng.Run(sim.MaxTime, nil)
	if delivered+int(sw.DataDrops) != n {
		t.Fatalf("delivered %d + drops %d != %d", delivered, sw.DataDrops, n)
	}
	if delivered < 300 || delivered > 700 {
		t.Fatalf("delivered %d of %d at loss 0.5 — injector biased", delivered, n)
	}
}

func TestLossInjectionSparesControl(t *testing.T) {
	eng := sim.New(1)
	sw := NewSwitch(eng, "s0")
	sw.LossRate = 1.0
	h1 := NewHost(eng, "h1", 1, gbps100, 600)
	h2 := NewHost(eng, "h2", 2, gbps100, 600)
	Connect(h1.NIC, sw.AddPort(gbps100, 600))
	Connect(h2.NIC, sw.AddPort(gbps100, 600))
	sw.AddRoute(1, 0)
	sw.AddRoute(2, 1)
	got := 0
	h2.Handler = func(p *Packet) { got++ }
	h1.Send(&Packet{Type: Ack, Src: 1, Dst: 2})
	h1.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 64})
	eng.Run(sim.MaxTime, nil)
	if got != 1 {
		t.Fatalf("got %d packets, want only the ACK to survive full data loss", got)
	}
}

// Property: TxTime is additive — transmitting a+b bytes takes as long as a
// then b (within integer rounding).
func TestTxTimeAdditive(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, "h", 1, gbps100, 0)
	f := func(a, b uint16) bool {
		whole := h.NIC.TxTime(int(a) + int(b))
		split := h.NIC.TxTime(int(a)) + h.NIC.TxTime(int(b))
		d := whole - split
		if d < 0 {
			d = -d
		}
		return d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPortStatsCountTx(t *testing.T) {
	eng, a, b := newPair(t)
	b.Handler = func(p *Packet) {}
	a.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 500})
	eng.Run(sim.MaxTime, nil)
	if a.NIC.Stats.TxPackets != 1 {
		t.Fatalf("TxPackets = %d", a.NIC.Stats.TxPackets)
	}
	if a.NIC.Stats.TxBytes != uint64(500+WireOverhead) {
		t.Fatalf("TxBytes = %d", a.NIC.Stats.TxBytes)
	}
}

func TestControlQueuePriority(t *testing.T) {
	eng := sim.New(1)
	a := NewHost(eng, "a", 1, 1e9, 600) // slow link so data queues up
	b := NewHost(eng, "b", 2, 1e9, 600)
	Connect(a.NIC, b.NIC)
	var order []PacketType
	b.Handler = func(p *Packet) { order = append(order, p.Type) }
	// Queue a burst of data, then one ACK: the ACK must overtake all but
	// the in-flight packet (Fig 7a's queue isolation).
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 1000})
	}
	a.Send(&Packet{Type: Ack, Src: 1, Dst: 2})
	eng.Run(sim.MaxTime, nil)
	if len(order) != 11 {
		t.Fatalf("delivered %d", len(order))
	}
	if order[1] != Ack {
		t.Fatalf("ACK delivered at position %v, want right after the in-flight packet", order)
	}
}

func TestPriorityQueuesPreserveWork(t *testing.T) {
	eng := sim.New(1)
	a := NewHost(eng, "a", 1, 1e9, 600)
	b := NewHost(eng, "b", 2, 1e9, 600)
	Connect(a.NIC, b.NIC)
	n := 0
	b.Handler = func(p *Packet) { n++ }
	for i := 0; i < 50; i++ {
		a.Send(&Packet{Type: Data, Src: 1, Dst: 2, Payload: 500})
		a.Send(&Packet{Type: Ack, Src: 1, Dst: 2})
	}
	eng.Run(sim.MaxTime, nil)
	if n != 100 {
		t.Fatalf("delivered %d of 100 across both queues", n)
	}
	if a.NIC.QueuedBytes() != 0 {
		t.Fatalf("%d bytes stranded in queues", a.NIC.QueuedBytes())
	}
}

// TestObsPacketTypeNamesInSync pins the duplicated packet-type name table in
// internal/obs (which cannot import simnet — simnet imports obs) to this
// package's PacketType.String. A new PacketType must be added to both.
func TestObsPacketTypeNamesInSync(t *testing.T) {
	for pt := Data; pt <= Raw; pt++ {
		if got := obs.PktTypeName(uint8(pt)); got != pt.String() {
			t.Errorf("obs.PktTypeName(%d) = %q, simnet %q", uint8(pt), got, pt.String())
		}
	}
	if got := obs.PktTypeName(uint8(Raw) + 1); got == Raw.String() {
		t.Errorf("obs names a packet type simnet does not have: %q", got)
	}
}
