package roce

import "repro/internal/sim"

// dcqcn implements the reaction-point (sender) side of DCQCN (Zhu et al.,
// SIGCOMM'15), the congestion control built into the ConnectX-family RNICs
// the paper's testbed uses. The notification point (CNP generation on
// ECN-CE) lives in QP.handleData; the congestion point (RED/ECN marking)
// lives in simnet's egress queues. Cepheus leaves all of this untouched and
// only filters which CNPs reach the sender (§III-D).
//
// The alpha-decay and rate-increase timers are virtual: instead of parking
// two queue entries per QP that fire every few tens of microseconds whether
// or not the QP is active (hundreds of standing scheduler slots on a big
// group, each one a fire and re-arm), each keeps only its next deadline and the
// state is caught up in closed form at the points where it is observed —
// emission pacing, CNP arrival, byte-counter ticks, and Rate() sampling.
// Catch-up replays the exact per-tick float arithmetic in deadline order,
// so the state a QP observes is bit-identical to timer-driven execution,
// and the elided firings are credited to the engine's event ledger.
type dcqcn struct {
	qp *QP
	p  DCQCNParams

	rc    float64 // current rate
	rt    float64 // target rate
	alpha float64

	lastDecrease sim.Time
	bytes        int
	tCount       int // increase events from the timer since last cut
	bCount       int // increase events from the byte counter since last cut

	alphaAt sim.Time // next virtual alpha-decay deadline
	incAt   sim.Time // next virtual rate-increase deadline
}

func newDCQCN(qp *QP, p DCQCNParams) *dcqcn {
	line := qp.nic.Host.NIC.RateBps
	c := &dcqcn{qp: qp, p: p, rc: line, rt: line, alpha: 1, lastDecrease: -1 << 60}
	c.armAlphaTimer()
	c.armIncTimer()
	return c
}

func (c *dcqcn) armAlphaTimer() {
	c.alphaAt = c.qp.eng.Now() + c.p.AlphaTimer
}

func (c *dcqcn) armIncTimer() {
	c.incAt = c.qp.eng.Now() + c.p.IncTimer
}

// catchUp applies every virtual timer tick due at or before now, in the
// order the scheduler would have fired them. The two tick kinds touch
// disjoint state (alpha vs rt/rc/tCount), so replaying each stream
// separately preserves the timer-driven result exactly.
func (c *dcqcn) catchUp() {
	now := c.qp.eng.Now()
	if c.alphaAt > now && c.incAt > now {
		return
	}
	n := uint64(0)
	for c.alphaAt <= now {
		c.alpha *= 1 - c.p.G
		c.alphaAt += c.p.AlphaTimer
		n++
	}
	for c.incAt <= now {
		c.tCount++
		c.increase()
		c.incAt += c.p.IncTimer
		n++
	}
	c.qp.eng.Credit(n)
}

// onCNP is the DCQCN cut: alpha absorbs the congestion signal and the rate
// halves proportionally to it, at most once per MinDecreaseNs.
func (c *dcqcn) onCNP() {
	c.catchUp()
	c.alpha = (1-c.p.G)*c.alpha + c.p.G
	c.armAlphaTimer()
	now := c.qp.eng.Now()
	if now-c.lastDecrease < c.p.MinDecreaseNs {
		return
	}
	c.lastDecrease = now
	c.rt = c.rc
	c.rc *= 1 - c.alpha/2
	if c.rc < c.p.MinRate {
		c.rc = c.p.MinRate
	}
	c.tCount, c.bCount, c.bytes = 0, 0, 0
	c.armIncTimer()
}

func (c *dcqcn) onBytesSent(n int) {
	c.catchUp()
	c.bytes += n
	for c.bytes >= c.p.ByteCounter {
		c.bytes -= c.p.ByteCounter
		c.bCount++
		c.increase()
	}
}

func (c *dcqcn) increase() {
	f := c.p.FastRecovery
	switch {
	case c.tCount <= f && c.bCount <= f:
		// Fast recovery: climb halfway back to the pre-cut rate.
	case c.tCount > f && c.bCount > f:
		c.rt += c.p.RateHAI
	default:
		c.rt += c.p.RateAI
	}
	line := c.qp.nic.Host.NIC.RateBps
	if c.rt > line {
		c.rt = line
	}
	c.rc = (c.rt + c.rc) / 2
	if c.rc > line {
		c.rc = line
	}
	c.qp.trySend()
}
