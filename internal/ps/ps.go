// Package ps models the parameter-server training pattern the paper's
// introduction motivates: each iteration the PS distributes the updated
// model to every worker (a one-to-many multicast — the paper's headline
// use case) and the workers push gradients back (a many-to-one reduction —
// the future-work primitive implemented in internal/core). With Cepheus
// both directions ride one multicast group; the baseline uses AMcast
// broadcast plus an incast gather.
package ps

import (
	"fmt"

	cepheus "repro"
	"repro/internal/amcast"
	"repro/internal/sim"
)

// Config sizes the training job.
type Config struct {
	Workers    int
	ModelBytes int      // parameters pushed PS -> workers per iteration
	GradBytes  int      // gradients pushed worker -> PS per iteration
	ComputeNs  sim.Time // per-iteration worker compute time
	Iterations int
}

// DefaultConfig is a communication-heavy small model: 64MB of parameters,
// matching gradients, and 10ms of compute.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:    workers,
		ModelBytes: 64 << 20,
		GradBytes:  64 << 20,
		ComputeNs:  10 * sim.Millisecond,
		Iterations: 4,
	}
}

// Result decomposes a training run.
type Result struct {
	JCT     sim.Time
	Bcast   sim.Time
	Reduce  sim.Time
	Compute sim.Time
	// GradSums holds the PS-side aggregated gradient per iteration, for
	// end-to-end numerical verification.
	GradSums []float64
}

// Scheme selects the communication substrate.
type Scheme string

const (
	// SchemeCepheus uses one multicast group for both directions.
	SchemeCepheus Scheme = "cepheus"
	// SchemeAMcast uses a chain broadcast and a unicast gather.
	SchemeAMcast Scheme = "amcast"
)

// Cluster is a wired PS training testbed: node 0 is the PS, nodes 1..W the
// workers.
type Cluster struct {
	tb  *cepheus.Cluster
	Cfg Config

	bcast  amcast.Broadcaster
	reduce amcast.Reducer
}

// NewTestbed builds the cluster on a single-ToR testbed. SchemeCepheus
// registers its multicast group before returning; a failed registration or
// an unknown scheme is an error.
func NewTestbed(cfg Config, scheme Scheme) (*Cluster, error) {
	n := cfg.Workers + 1
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	c := &Cluster{tb: cepheus.NewTestbed(n, cepheus.Options{}), Cfg: cfg}
	switch scheme {
	case SchemeCepheus:
		g, err := c.tb.NewGroup(nodes, 0)
		if err != nil {
			return nil, fmt.Errorf("ps: %w", err)
		}
		c.bcast = &amcast.Cepheus{Group: g}
		c.reduce = &amcast.CepheusReduce{Group: g}
	case SchemeAMcast:
		comm, err := c.tb.Comm(nodes)
		if err != nil {
			return nil, fmt.Errorf("ps: %w", err)
		}
		c.bcast = amcast.Chain{C: comm, Slices: n}
		c.reduce = amcast.GatherReduce{C: comm}
	default:
		return nil, fmt.Errorf("ps: unknown scheme %q", scheme)
	}
	return c, nil
}

// Run executes the training loop and returns the decomposition, or an error
// if a broadcast or a reduction stalls. Gradients are synthetic: worker i
// contributes float64(i) each iteration, so the PS-side aggregate must
// equal ExpectedGradSum.
func (c *Cluster) Run() (Result, error) {
	tb := c.tb
	res := Result{}
	start := tb.Now()
	for it := 0; it < c.Cfg.Iterations; it++ {
		jct, err := tb.RunBcastErr(c.bcast, 0, c.Cfg.ModelBytes)
		if err != nil {
			return res, fmt.Errorf("ps: iteration %d: %w", it, err)
		}
		res.Bcast += jct
		tb.SettleUntil(tb.Now() + c.Cfg.ComputeNs)
		res.Compute += c.Cfg.ComputeNs

		t0 := tb.Now()
		reduced := false
		c.reduce.Reduce(0, c.Cfg.GradBytes,
			func(rank int) float64 {
				if rank == 0 {
					return 0 // the PS holds no gradient
				}
				return float64(rank)
			},
			func(total float64) {
				res.GradSums = append(res.GradSums, total)
				reduced = true
			})
		if err := tb.Run(sim.MaxTime, func() bool { return reduced }); err != nil {
			return res, fmt.Errorf("ps: iteration %d: %s reduce stalled: %w", it, c.reduce.Name(), err)
		}
		res.Reduce += tb.Now() - t0
	}
	res.JCT = tb.Now() - start
	return res, nil
}

// ExpectedGradSum is the per-iteration aggregate the PS must observe.
func (c *Cluster) ExpectedGradSum() float64 {
	w := c.Cfg.Workers
	return float64(w*(w+1)) / 2
}
