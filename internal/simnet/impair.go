package simnet

import (
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Gray-failure impairments: the failures that dominate at hyperscale are not
// clean crashes but lossy links, bit corruption, degraded bandwidth and lost
// control-plane messages. An Impairment attaches to one direction of a link
// (one Port's egress) and perturbs frames as they leave the queue and start
// serializing — after dequeue, so egress byte conservation (the auditor's
// ENQ = DEQ + DROP replay) is untouched, and before delivery scheduling, so a
// lost frame simply never reaches the peer.
//
// Determinism: every probabilistic decision draws from a dedicated per-port
// RNG seeded by the caller, never from the engine's RNG. The draws happen
// inside the port's own transmit events, whose order is a pure function of
// the simulated history, so impairing one link never shifts the random
// streams of loss injection or ECN marking elsewhere (DESIGN.md §12).

// GilbertElliott is the classic two-state burst-loss channel: the chain moves
// between a good and a bad state once per eligible frame, and each state
// drops frames with its own probability. The zero value is inactive.
type GilbertElliott struct {
	PGoodBad float64 // per-frame P(good → bad)
	PBadGood float64 // per-frame P(bad → good)
	LossBad  float64 // drop probability while bad
	LossGood float64 // drop probability while good (usually 0)
}

func (g *GilbertElliott) active() bool { return g.LossBad > 0 || g.LossGood > 0 }

// Impairment describes one egress direction's gray failure. Fields compose:
// a link can be simultaneously lossy, slow and laggy. All probabilities are
// per frame; PFC PAUSE/RESUME frames are exempt from every loss term (they
// model MAC-level frames on a dedicated path — losing them would deadlock
// the flow-control model rather than exercise a protocol retry).
type Impairment struct {
	// LossRate drops each eligible frame independently.
	LossRate float64

	// Burst adds Gilbert-Elliott burst loss on top of LossRate.
	Burst GilbertElliott

	// CorruptRate flips bits in flight; the receiver's CRC check discards the
	// frame, observationally a wire loss recorded under its own reason and
	// counter.
	CorruptRate float64

	// CtrlLossRate targets the control plane only (MRP/ACK/NACK/CNP), the
	// "loss storm" that starves registration and feedback while data flows.
	CtrlLossRate float64

	// ExtraLatency is added to every delivered frame's propagation delay;
	// Jitter adds a further uniform draw from [0, Jitter).
	ExtraLatency sim.Time
	Jitter       sim.Time

	// BandwidthFraction in (0, 1) stretches serialization time by 1/fraction,
	// degrading the link to that fraction of line rate. 0 (and anything
	// outside (0,1)) leaves the rate alone.
	BandwidthFraction float64
}

// impairState is the live impairment attached to a port: the config plus the
// seeded RNG and burst-chain state that make its decisions reproducible.
type impairState struct {
	Impairment
	rng *rand.Rand
	bad bool // Gilbert-Elliott chain state
}

// SetImpairment installs (or replaces) this egress direction's gray failure.
// seed initializes the impairment's private RNG; the same seed and workload
// yield the same frame fates. Call it either before the run starts or from
// an event on this port's engine — the impairment mutates only port-local
// state.
func (pt *Port) SetImpairment(imp Impairment, seed int64) {
	pt.imp = &impairState{Impairment: imp, rng: rand.New(rand.NewSource(seed))}
}

// ClearImpairment restores the healthy egress. Frames already serialized
// keep the fate they were assigned.
func (pt *Port) ClearImpairment() { pt.imp = nil }

// Impaired reports whether a gray impairment is installed on this egress.
func (pt *Port) Impaired() bool { return pt.imp != nil }

// CurrentImpairment returns the installed impairment config, if any.
func (pt *Port) CurrentImpairment() (Impairment, bool) {
	if pt.imp == nil {
		return Impairment{}, false
	}
	return pt.imp.Impairment, true
}

// stormEligible classifies the control traffic CtrlLossRate applies to,
// mirroring the switch-level isLossyControl set.
func stormEligible(t PacketType) bool {
	switch t {
	case MRP, MRPConfirm, MRPReject, Ack, Nack, CNP:
		return true
	}
	return false
}

// fate decides whether the frame survives the impaired wire, advancing the
// burst chain. The draw sequence is fixed per frame (chain step, then each
// enabled loss term in order), so the decision stream is a pure function of
// the frame sequence and the seed.
func (im *impairState) fate(p *Packet) obs.Reason {
	t := p.Type
	if t == Pause || t == Resume {
		return obs.RNone
	}
	if im.Burst.active() {
		if im.bad {
			if im.rng.Float64() < im.Burst.PBadGood {
				im.bad = false
			}
		} else if im.rng.Float64() < im.Burst.PGoodBad {
			im.bad = true
		}
	}
	if im.LossRate > 0 && im.rng.Float64() < im.LossRate {
		return obs.RImpairLoss
	}
	if im.Burst.active() {
		pl := im.Burst.LossGood
		if im.bad {
			pl = im.Burst.LossBad
		}
		if pl > 0 && im.rng.Float64() < pl {
			return obs.RImpairLoss
		}
	}
	if im.CorruptRate > 0 && im.rng.Float64() < im.CorruptRate {
		return obs.RCorrupt
	}
	if im.CtrlLossRate > 0 && stormEligible(t) && im.rng.Float64() < im.CtrlLossRate {
		return obs.RStormLoss
	}
	return obs.RNone
}

// impairSend is trySend's slow path for an impaired egress: it assigns the
// frame's fate, stretches serialization for bandwidth degradation, inflates
// propagation for latency/jitter, and schedules delivery only for survivors.
// Doomed frames still hold the link for their (stretched) serialization time
// — the bits went onto the wire — and are recorded and released when
// serialization completes (impairTxDone), keeping the link-busy and PFC
// accounting identical to the healthy path.
func (pt *Port) impairSend(p *Packet, tx sim.Time) {
	im := pt.imp
	if f := im.BandwidthFraction; f > 0 && f < 1 {
		tx = sim.Time(float64(tx) / f)
	}
	reason := im.fate(p)
	p.impairDrop = reason
	prop := pt.PropDelay
	if reason == obs.RNone {
		prop += im.ExtraLatency
		if im.Jitter > 0 {
			prop += sim.Time(im.rng.Int63n(int64(im.Jitter)))
		}
	}
	p.txEpoch, p.peerEpoch = pt.epoch, pt.Peer.epoch
	pt.eng.After(tx, func() { pt.impairTxDone(p) })
	if reason == obs.RNone {
		pt.eng.After(tx+prop, func() { pt.arrive(p) })
	}
}

// impairTxDone fires when a frame finishes serializing on the per-frame
// path: the link is free for the next frame and the frame's ingress-buffer
// reservation is returned. The healthy burst path releases accounting at
// commit time and uses the txT timer instead.
func (pt *Port) impairTxDone(p *Packet) {
	pt.busy = false
	if p.acct != nil {
		p.acct.release(p.Size())
		p.acct = nil
	}
	if p.impairDrop != obs.RNone {
		// The impaired wire killed this frame; no delivery was scheduled,
		// so serialization end is where it dies. The drop is post-dequeue,
		// so the recorded depth is the port's current one, which the
		// auditor checks against its replay (injected loss stays
		// distinguishable from an accounting bug).
		pt.drop(p, p.impairDrop, int64(pt.qBytes))
	}
	if pt.OnDrain != nil && pt.qBytes <= pt.LowWater {
		pt.OnDrain()
	}
	pt.trySend()
}
