package roce

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func irnConfig() Config {
	cfg := DefaultConfig()
	cfg.IRN = true
	return cfg
}

func TestIRNDeliversInOrder(t *testing.T) {
	t.Parallel()
	e := newPairEnv(t, irnConfig())
	var sizes []int
	e.qb.OnMessage = func(m Message) { sizes = append(sizes, m.Size) }
	e.qa.PostSend(100, nil)
	e.qa.PostSend(5000, nil)
	e.eng.Run(sim.MaxTime, nil)
	if len(sizes) != 2 || sizes[0] != 100 || sizes[1] != 5000 {
		t.Fatalf("sizes %v", sizes)
	}
}

func TestIRNSelectiveRepairSingleLoss(t *testing.T) {
	t.Parallel()
	cfg := irnConfig()
	e := newPairEnv(t, cfg)
	dropped := false
	e.net.Switches[0].Hook = hookFunc(func(sw *simnet.Switch, p *simnet.Packet, in *simnet.Port) bool {
		if p.Type == simnet.Data && p.PSN == 50 && !dropped {
			dropped = true
			return true
		}
		return false
	})
	var got *Message
	e.qb.OnMessage = func(m Message) { got = &m }
	size := cfg.MTU * 200
	e.qa.PostSend(size, nil)
	e.eng.Run(sim.MaxTime, nil)
	if got == nil || got.Size != size {
		t.Fatalf("transfer incomplete: %+v", got)
	}
	// Exactly one packet is repaired; go-back-N would resend a window tail.
	if e.ra.Stats.Retransmits != 1 {
		t.Fatalf("IRN retransmitted %d packets for one loss, want 1", e.ra.Stats.Retransmits)
	}
	if e.ra.Stats.SelectiveRetx == 0 {
		t.Fatal("selective-retx path never used")
	}
	if e.ra.Stats.GoBackN != 0 {
		t.Fatal("IRN mode performed a go-back-N rewind")
	}
}

func TestIRNFarLessRetransmissionThanGBN(t *testing.T) {
	t.Parallel()
	run := func(irn bool) (retx uint64, ok bool) {
		cfg := DefaultConfig()
		cfg.IRN = irn
		e := newPairEnv(t, cfg)
		e.net.Switches[0].LossRate = 0.01
		done := false
		e.qb.OnMessage = func(m Message) { done = true }
		e.qa.PostSend(4<<20, nil)
		e.eng.RunUntil(sim.Second)
		return e.ra.Stats.Retransmits, done
	}
	gbn, ok1 := run(false)
	irn, ok2 := run(true)
	if !ok1 || !ok2 {
		t.Fatalf("transfers incomplete: gbn=%v irn=%v", ok1, ok2)
	}
	if irn*3 > gbn {
		t.Fatalf("IRN retransmitted %d vs GBN %d; selective repeat not paying off", irn, gbn)
	}
}

func TestIRNHeavyLossCompletes(t *testing.T) {
	t.Parallel()
	cfg := irnConfig()
	e := newPairEnv(t, cfg)
	e.net.Switches[0].LossRate = 0.2
	done := false
	e.qb.OnMessage = func(m Message) { done = true }
	e.qa.PostSend(256<<10, nil)
	e.eng.RunUntil(sim.Second)
	if !done {
		t.Fatal("IRN transfer under 20% loss incomplete")
	}
}

func TestIRNGoodputExact(t *testing.T) {
	t.Parallel()
	cfg := irnConfig()
	e := newPairEnv(t, cfg)
	e.net.Switches[0].LossRate = 0.05
	size := 1 << 20
	done := false
	e.qb.OnMessage = func(m Message) { done = true }
	e.qa.PostSend(size, nil)
	e.eng.RunUntil(sim.Second)
	if !done {
		t.Fatal("incomplete")
	}
	if e.qb.GoodputBytes != uint64(size) {
		t.Fatalf("goodput %d != %d: duplicate or missing bytes surfaced", e.qb.GoodputBytes, size)
	}
}

// Cepheus + IRN: the aggregation semantics (cumulative ACKs, ePSN NACKs)
// are unchanged, so the accelerator interoperates with IRN endpoints; this
// is the §V-C suggestion for tolerating higher loss rates.
func TestIRNTailLossRTO(t *testing.T) {
	t.Parallel()
	cfg := irnConfig()
	e := newPairEnv(t, cfg)
	dropped := false
	e.net.Switches[0].Hook = hookFunc(func(sw *simnet.Switch, p *simnet.Packet, in *simnet.Port) bool {
		if p.Type == simnet.Data && p.Last && !dropped {
			dropped = true
			return true
		}
		return false
	})
	var got *Message
	e.qb.OnMessage = func(m Message) { got = &m }
	e.qa.PostSend(cfg.MTU*3, nil)
	e.eng.Run(sim.MaxTime, nil)
	if got == nil {
		t.Fatal("tail loss not repaired")
	}
	if e.ra.Stats.Timeouts == 0 {
		t.Fatal("RTO path untested")
	}
	// The RTO repair must be selective, not a rewind: with no ACKs in
	// flight the sender probes sndUna first, then the actual tail — at
	// most two packets, never a window.
	if e.ra.Stats.Retransmits > 2 {
		t.Fatalf("%d retransmits for tail loss, want <=2", e.ra.Stats.Retransmits)
	}
	if e.ra.Stats.GoBackN != 0 {
		t.Fatal("IRN mode performed a go-back-N rewind")
	}
}
