package roce

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestGoBackNLossSweepBound drives go-back-N through sustained iid wire loss
// at rates up to the 5% gray-failure ceiling and checks the analytic
// retransmission bounds: every dropped data frame forces at least one
// retransmission (R >= D), and each recovery event — a NACK rewind tied to a
// drop or an RTO — resends at most one window (R <= (D + timeouts) * W).
func TestGoBackNLossSweepBound(t *testing.T) {
	t.Parallel()
	for _, p := range []float64{0.01, 0.03, 0.05} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("p%.2f/seed%d", p, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.WindowPkts = 64
				e := newPairEnv(t, cfg)
				e.net.Hosts[0].NIC.SetImpairment(simnet.Impairment{LossRate: p}, seed)
				var got *Message
				e.qb.OnMessage = func(m Message) { got = &m }
				size := cfg.MTU * 2000
				e.qa.PostSend(size, nil)
				e.eng.RunUntil(sim.Second)
				if got == nil || got.Size != size {
					t.Fatalf("transfer under %.0f%% loss incomplete: %+v", p*100, got)
				}
				drops := e.net.Hosts[0].NIC.Stats.ImpairDrops
				if drops == 0 {
					t.Fatal("impairment never fired; test is vacuous")
				}
				retx := e.ra.Stats.Retransmits
				if retx < drops {
					t.Fatalf("R=%d < D=%d: a dropped frame was never resent", retx, drops)
				}
				if limit := (drops + e.ra.Stats.Timeouts) * uint64(cfg.WindowPkts); retx > limit {
					t.Fatalf("R=%d exceeds (D=%d + timeouts=%d) * W=%d = %d",
						retx, drops, e.ra.Stats.Timeouts, cfg.WindowPkts, limit)
				}
				// The observed loss fraction should sit near the configured
				// rate; a generous 3x band keeps the seeded draw stable.
				frac := float64(drops) / float64(e.ra.Stats.DataSent)
				if frac < p/3 || frac > 3*p {
					t.Fatalf("observed loss %.4f far from configured %.4f", frac, p)
				}
			})
		}
	}
}

// TestNackRewindAckRaceDoesNotWedge reproduces a wedge found by the gray
// chaos soak: a NACK rewinds sndNxt, then the cumulative ACK for the NACKed
// range (which was delayed in flight, not lost) lands before the rewound
// packets are re-emitted. sndUna jumps past sndNxt, the unsigned in-flight
// count underflows, and — with everything acknowledged — the RTO stops, so
// the QP is permanently dormant: the next PostSend never transmits.
func TestNackRewindAckRaceDoesNotWedge(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	e := newPairEnv(t, cfg)
	blackhole := true
	e.net.Switches[0].Hook = hookFunc(func(sw *simnet.Switch, p *simnet.Packet, in *simnet.Port) bool {
		return blackhole
	})
	// Get a 4-packet window fully emitted but unacknowledged.
	e.qa.PostSend(cfg.MTU*4, nil)
	e.eng.RunUntil(100 * sim.Microsecond)
	if e.qa.maxSent != 4 || e.qa.sndUna != 0 {
		t.Fatalf("setup: maxSent=%d sndUna=%d, want 4/0", e.qa.maxSent, e.qa.sndUna)
	}
	// The receiver NACKs expecting PSN 2; the requester rewinds sndNxt.
	nack := simnet.NewPacket()
	nack.Type, nack.PSN = simnet.Nack, 2
	e.qa.handle(nack)
	if e.qa.sndNxt != 2 {
		t.Fatalf("NACK rewind: sndNxt=%d, want 2", e.qa.sndNxt)
	}
	// Before the rewound range re-emits, the in-flight tail 2..3 arrives
	// after all and its cumulative ACK lands: everything is acknowledged.
	ack := simnet.NewPacket()
	ack.Type, ack.PSN = simnet.Ack, 3
	e.qa.handle(ack)
	if e.qa.sndUna != 4 {
		t.Fatalf("cumulative ACK: sndUna=%d, want 4", e.qa.sndUna)
	}
	if e.qa.sndNxt < e.qa.sndUna {
		t.Fatalf("invariant broken: sndNxt=%d < sndUna=%d", e.qa.sndNxt, e.qa.sndUna)
	}
	// Align the responder with the acknowledgements injected on its behalf,
	// reopen the wire, and post again: the QP must transmit, not sleep.
	e.qb.SetRqPSN(4)
	blackhole = false
	var got *Message
	e.qb.OnMessage = func(m Message) { got = &m }
	e.qa.PostSend(cfg.MTU*2, nil)
	e.eng.Run(sim.MaxTime, nil)
	if got == nil || got.Size != cfg.MTU*2 {
		t.Fatalf("post-race message never delivered (QP wedged): %+v", got)
	}
}

// TestRetxBackoffGrowsAndResets exercises the opt-in exponential RTO backoff:
// consecutive timeouts with zero progress double the RTO up to the cap, and
// the first cumulative-ACK progress snaps it back to the configured base.
func TestRetxBackoffGrowsAndResets(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.RetxBackoff = 2
	cfg.RetxBackoffMax = 4 * cfg.RetxTimeout
	e := newPairEnv(t, cfg)
	blackhole := true
	e.net.Switches[0].Hook = hookFunc(func(sw *simnet.Switch, p *simnet.Packet, in *simnet.Port) bool {
		return blackhole && p.Type == simnet.Data
	})
	var got *Message
	e.qb.OnMessage = func(m Message) { got = &m }
	e.qa.PostSend(100, nil)
	e.eng.RunUntil(20 * sim.Millisecond)
	if e.ra.Stats.Timeouts == 0 {
		t.Fatal("no RTO fired under a data black hole")
	}
	if e.qa.curRTO != cfg.RetxBackoffMax {
		t.Fatalf("curRTO = %v after sustained timeouts, want cap %v", e.qa.curRTO, cfg.RetxBackoffMax)
	}
	// Backed-off RTO means far fewer timeouts than the fixed 500us schedule
	// (which would fire ~40 times in 20ms); 0.5+1+2+2+... fires ~11 times.
	if e.ra.Stats.Timeouts > 15 {
		t.Fatalf("%d timeouts in 20ms; backoff not applied", e.ra.Stats.Timeouts)
	}
	blackhole = false
	e.eng.Run(sim.MaxTime, nil)
	if got == nil {
		t.Fatal("message never recovered after the black hole lifted")
	}
	if e.qa.curRTO != 0 {
		t.Fatalf("curRTO = %v after progress, want reset to 0", e.qa.curRTO)
	}
}

// TestRetxBackoffDefaultOff pins the default behavior: with RetxBackoff unset
// the RTO stays at the fixed configured timeout, byte-identical to the
// pre-backoff golden traces.
func TestRetxBackoffDefaultOff(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
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
	if got == nil || e.ra.Stats.Timeouts == 0 {
		t.Fatal("RTO recovery path untested")
	}
	if e.qa.curRTO != 0 {
		t.Fatalf("curRTO = %v with backoff disabled, want 0 always", e.qa.curRTO)
	}
}
