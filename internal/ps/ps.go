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

	"repro/internal/amcast"
	"repro/internal/core"
	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/topo"
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
	eng *sim.Engine
	Cfg Config

	bcast  amcast.Broadcaster
	reduce amcast.Reducer
}

// NewTestbed builds the cluster on a single-ToR topology.
func NewTestbed(eng *sim.Engine, cfg Config, scheme Scheme) *Cluster {
	n := cfg.Workers + 1
	net := topo.Testbed(eng, n)
	tr := roce.DefaultConfig()
	rnics := make([]*roce.RNIC, n)
	agents := make([]*core.Agent, n)
	for i, h := range net.Hosts {
		rnics[i] = roce.NewRNIC(h, tr)
		agents[i] = core.NewAgent(rnics[i])
	}
	c := &Cluster{eng: eng, Cfg: cfg}
	switch scheme {
	case SchemeCepheus:
		core.Attach(net.Switches[0], core.DefaultAccelConfig())
		var members []*core.Member
		for i := 0; i < n; i++ {
			members = append(members, &core.Member{Host: net.Hosts[i], RNIC: rnics[i], QP: rnics[i].CreateQP()})
		}
		g := core.NewGroup(eng, net.AllocMcstID(), members, 0, agents)
		ok := false
		g.Register(10*sim.Millisecond, func(err error) {
			if err != nil {
				panic("ps: registration failed: " + err.Error())
			}
			ok = true
		})
		eng.RunUntil(eng.Now() + 10*sim.Millisecond)
		if !ok {
			panic("ps: registration did not finish")
		}
		c.bcast = &amcast.Cepheus{Group: g}
		c.reduce = &amcast.CepheusReduce{Group: g}
	case SchemeAMcast:
		nodes := make([]*amcast.Node, n)
		for i := range nodes {
			nodes[i] = &amcast.Node{Host: net.Hosts[i], RNIC: rnics[i]}
		}
		comm := amcast.NewComm(nodes)
		c.bcast = amcast.Chain{C: comm, Slices: n}
		c.reduce = amcast.GatherReduce{C: comm}
	default:
		panic(fmt.Sprintf("ps: unknown scheme %q", scheme))
	}
	return c
}

// Run executes the training loop and returns the decomposition. Gradients
// are synthetic: worker i contributes float64(i) each iteration, so the
// PS-side aggregate must equal W(W+1)/2 - ... (sum over worker ranks).
func (c *Cluster) Run() Result {
	eng := c.eng
	res := Result{}
	start := eng.Now()

	wait := func(f func(done func())) sim.Time {
		t0 := eng.Now()
		finished := false
		f(func() { finished = true })
		if eng.Run(sim.MaxTime, func() bool { return finished }) != sim.Done {
			panic("ps: phase stalled")
		}
		return eng.Now() - t0
	}

	for it := 0; it < c.Cfg.Iterations; it++ {
		res.Bcast += wait(func(done func()) {
			c.bcast.Bcast(0, c.Cfg.ModelBytes, done)
		})
		eng.RunFor(c.Cfg.ComputeNs)
		res.Compute += c.Cfg.ComputeNs
		res.Reduce += wait(func(done func()) {
			c.reduce.Reduce(0, c.Cfg.GradBytes,
				func(rank int) float64 {
					if rank == 0 {
						return 0 // the PS holds no gradient
					}
					return float64(rank)
				},
				func(total float64) {
					res.GradSums = append(res.GradSums, total)
					done()
				})
		})
	}
	res.JCT = eng.Now() - start
	return res
}

// ExpectedGradSum is the per-iteration aggregate the PS must observe.
func (c *Cluster) ExpectedGradSum() float64 {
	w := c.Cfg.Workers
	return float64(w*(w+1)) / 2
}
