package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func newImpairState(imp Impairment, seed int64) *impairState {
	return &impairState{Impairment: imp, rng: rand.New(rand.NewSource(seed))}
}

func TestImpairFateExemptsPFC(t *testing.T) {
	im := newImpairState(Impairment{LossRate: 1, CorruptRate: 1, CtrlLossRate: 1}, 1)
	for _, pt := range []PacketType{Pause, Resume} {
		if r := im.fate(&Packet{Type: pt}); r != obs.RNone {
			t.Fatalf("%v frame got fate %v; PFC must be exempt", pt, r)
		}
	}
	if r := im.fate(&Packet{Type: Data, Payload: 100}); r != obs.RImpairLoss {
		t.Fatalf("data frame survived LossRate=1: %v", r)
	}
}

func TestImpairFateCtrlStormTargetsControlOnly(t *testing.T) {
	im := newImpairState(Impairment{CtrlLossRate: 1}, 1)
	if r := im.fate(&Packet{Type: Data, Payload: 100}); r != obs.RNone {
		t.Fatalf("ctrl storm killed a data packet: %v", r)
	}
	for _, pt := range []PacketType{Ack, Nack, CNP, MRP, MRPConfirm, MRPReject} {
		if r := im.fate(&Packet{Type: pt}); r != obs.RStormLoss {
			t.Fatalf("%v frame survived a total control storm: %v", pt, r)
		}
	}
}

func TestImpairFateCorruptReason(t *testing.T) {
	im := newImpairState(Impairment{CorruptRate: 1}, 1)
	if r := im.fate(&Packet{Type: Data, Payload: 100}); r != obs.RCorrupt {
		t.Fatalf("fate = %v, want corrupt", r)
	}
}

func TestImpairFateBurstChain(t *testing.T) {
	// PGoodBad=1 flips to bad on the first eligible frame and stays there
	// (PBadGood=0): every frame from the first on must drop.
	im := newImpairState(Impairment{Burst: GilbertElliott{PGoodBad: 1, LossBad: 1}}, 1)
	for i := 0; i < 10; i++ {
		if r := im.fate(&Packet{Type: Data, Payload: 100}); r != obs.RImpairLoss {
			t.Fatalf("frame %d survived the bad state: %v", i, r)
		}
	}
}

func TestImpairFateDeterministic(t *testing.T) {
	imp := Impairment{LossRate: 0.2, Burst: GilbertElliott{PGoodBad: 0.1, PBadGood: 0.3, LossBad: 0.8}, CorruptRate: 0.05}
	a := newImpairState(imp, 42)
	b := newImpairState(imp, 42)
	for i := 0; i < 1000; i++ {
		p := &Packet{Type: Data, Payload: 100}
		if ra, rb := a.fate(p), b.fate(p); ra != rb {
			t.Fatalf("fate streams diverged at frame %d: %v vs %v", i, ra, rb)
		}
	}
}

func TestImpairLossEndToEnd(t *testing.T) {
	run := func() (delivered int, drops uint64) {
		eng, a, b := newPair(t)
		a.NIC.SetImpairment(Impairment{LossRate: 0.3}, 7)
		b.Handler = func(p *Packet) { delivered++ }
		const n = 400
		for i := 0; i < n; i++ {
			a.Send(&Packet{Type: Data, Src: a.IP, Dst: b.IP, Payload: 1024, PSN: uint64(i)})
		}
		eng.Run(sim.MaxTime, nil)
		drops = a.NIC.Stats.ImpairDrops
		if delivered+int(drops) != n {
			t.Fatalf("delivered %d + dropped %d != sent %d", delivered, drops, n)
		}
		if drops == 0 || delivered == 0 {
			t.Fatalf("loss rate 0.3 produced delivered=%d drops=%d", delivered, drops)
		}
		return delivered, drops
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, x1, d2, x2)
	}
}

func TestImpairBandwidthStretchesSerialization(t *testing.T) {
	eng, a, b := newPair(t)
	a.NIC.SetImpairment(Impairment{BandwidthFraction: 0.5}, 1)
	var at sim.Time
	b.Handler = func(p *Packet) { at = eng.Now() }
	p := &Packet{Type: Data, Src: a.IP, Dst: b.IP, Payload: 1024}
	tx := a.NIC.TxTime(p.Size())
	a.Send(p)
	eng.Run(sim.MaxTime, nil)
	want := 2*tx + 600
	if at != want {
		t.Fatalf("delivered at %v, want %v (2x serialization at half rate + prop)", at, want)
	}
}

func TestImpairExtraLatency(t *testing.T) {
	eng, a, b := newPair(t)
	const extra = 5 * sim.Microsecond
	a.NIC.SetImpairment(Impairment{ExtraLatency: extra}, 1)
	var at sim.Time
	b.Handler = func(p *Packet) { at = eng.Now() }
	p := &Packet{Type: Data, Src: a.IP, Dst: b.IP, Payload: 1024}
	tx := a.NIC.TxTime(p.Size())
	a.Send(p)
	eng.Run(sim.MaxTime, nil)
	want := tx + 600 + extra
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestClearImpairmentRestoresHealthy(t *testing.T) {
	eng, a, b := newPair(t)
	a.NIC.SetImpairment(Impairment{LossRate: 1}, 1)
	delivered := 0
	b.Handler = func(p *Packet) { delivered++ }
	a.Send(&Packet{Type: Data, Src: a.IP, Dst: b.IP, Payload: 1024})
	eng.Run(sim.MaxTime, nil)
	if delivered != 0 {
		t.Fatal("total loss delivered a packet")
	}
	a.NIC.ClearImpairment()
	if a.NIC.Impaired() {
		t.Fatal("still impaired after clear")
	}
	a.Send(&Packet{Type: Data, Src: a.IP, Dst: b.IP, Payload: 1024})
	eng.Run(sim.MaxTime, nil)
	if delivered != 1 {
		t.Fatal("healthy link did not deliver after clear")
	}
}
