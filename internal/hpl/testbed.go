package hpl

import (
	"fmt"

	cepheus "repro"
	"repro/internal/amcast"
)

// NewTestbedCluster wires a P*Q grid on a single-ToR testbed (the paper's
// four servers) with pb driving row broadcasts and rs driving column
// broadcasts. HPL's recommended baselines are cepheus.SchemeRing for PB and
// cepheus.SchemeLong for RS; cepheus.SchemeCepheus replaces a phase's
// AMcast with multicast, registering one group per communicator before
// returning.
func NewTestbedCluster(cfg Config, pb, rs cepheus.Scheme) (*Cluster, error) {
	c := &Cluster{tb: cepheus.NewTestbed(cfg.P*cfg.Q, cepheus.Options{}), Cfg: cfg}
	// comms builds count communicators of size members each, member m of
	// communicator i being host at(i, m); a 1-member dimension has none.
	comms := func(count, size int, scheme cepheus.Scheme, at func(i, m int) int) ([]amcast.Broadcaster, error) {
		if size <= 1 {
			return nil, nil
		}
		bs := make([]amcast.Broadcaster, count)
		for i := range bs {
			idx := make([]int, size)
			for m := range idx {
				idx[m] = at(i, m)
			}
			b, err := c.tb.Broadcaster(scheme, idx, 0)
			if err != nil {
				return nil, fmt.Errorf("hpl: %w", err)
			}
			bs[i] = b
		}
		return bs, nil
	}
	var err error
	if c.RowBcasts, err = comms(cfg.P, cfg.Q, pb, func(p, q int) int { return p*cfg.Q + q }); err != nil {
		return nil, err
	}
	if c.ColBcasts, err = comms(cfg.Q, cfg.P, rs, func(q, p int) int { return p*cfg.Q + q }); err != nil {
		return nil, err
	}
	return c, nil
}

// DefaultTestbedConfig is the calibrated 4-node HPL problem: a compute rate
// that makes baseline PB communication ~18% of JCT, so the paper's 67% PB
// reduction yields the reported ~12% end-to-end gain (HPL is
// computation-intensive, §V-B2).
func DefaultTestbedConfig(p, q int) Config {
	return Config{N: 8192, NB: 256, P: p, Q: q, GFlops: 340}
}
