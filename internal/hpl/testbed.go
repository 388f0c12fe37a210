package hpl

import (
	"fmt"

	"repro/internal/amcast"
	"repro/internal/core"
	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Alg names a broadcast algorithm for an HPL phase.
type Alg string

const (
	// AlgRing is HPL's recommended increasing-ring for PB.
	AlgRing Alg = "increasing-ring"
	// AlgLong is HPL's recommended "long" (scatter+allgather) for RS.
	AlgLong Alg = "long"
	// AlgCepheus replaces the phase's AMcast with Cepheus multicast.
	AlgCepheus Alg = "cepheus"
)

// NewTestbedCluster wires a P*Q grid on a single-ToR testbed (the paper's
// four servers) with pbAlg driving row broadcasts and rsAlg driving column
// broadcasts. Cepheus phases register one multicast group per communicator
// before returning.
func NewTestbedCluster(eng *sim.Engine, cfg Config, pbAlg, rsAlg Alg) *Cluster {
	n := cfg.P * cfg.Q
	net := topo.Testbed(eng, n)
	tr := roce.DefaultConfig()
	rnics := make([]*roce.RNIC, n)
	agents := make([]*core.Agent, n)
	for i, h := range net.Hosts {
		rnics[i] = roce.NewRNIC(h, tr)
		agents[i] = core.NewAgent(rnics[i])
	}
	needCepheus := pbAlg == AlgCepheus || rsAlg == AlgCepheus
	if needCepheus {
		core.Attach(net.Switches[0], core.DefaultAccelConfig())
	}
	nodeAt := func(p, q int) int { return p*cfg.Q + q }

	build := func(idx []int, alg Alg) amcast.Broadcaster {
		if len(idx) <= 1 {
			return nil
		}
		switch alg {
		case AlgCepheus:
			var members []*core.Member
			var ags []*core.Agent
			for _, i := range idx {
				members = append(members, &core.Member{Host: net.Hosts[i], RNIC: rnics[i], QP: rnics[i].CreateQP()})
				ags = append(ags, agents[i])
			}
			g := core.NewGroup(eng, net.AllocMcstID(), members, 0, ags)
			ok := false
			g.Register(10*sim.Millisecond, func(err error) {
				if err != nil {
					panic("hpl: cepheus registration failed: " + err.Error())
				}
				ok = true
			})
			eng.RunUntil(eng.Now() + 10*sim.Millisecond)
			if !ok {
				panic("hpl: cepheus registration did not finish")
			}
			return &amcast.Cepheus{Group: g}
		case AlgRing:
			nodes := commNodes(net, rnics, idx)
			return amcast.Chain{C: amcast.NewComm(nodes), Slices: 1}
		case AlgLong:
			nodes := commNodes(net, rnics, idx)
			return amcast.Long{C: amcast.NewComm(nodes)}
		default:
			panic(fmt.Sprintf("hpl: unknown algorithm %q", alg))
		}
	}

	c := &Cluster{eng: eng, Cfg: cfg}
	if cfg.Q > 1 {
		for p := 0; p < cfg.P; p++ {
			idx := make([]int, cfg.Q)
			for q := range idx {
				idx[q] = nodeAt(p, q)
			}
			c.RowBcasts = append(c.RowBcasts, build(idx, pbAlg))
		}
	}
	if cfg.P > 1 {
		for q := 0; q < cfg.Q; q++ {
			idx := make([]int, cfg.P)
			for p := range idx {
				idx[p] = nodeAt(p, q)
			}
			c.ColBcasts = append(c.ColBcasts, build(idx, rsAlg))
		}
	}
	return c
}

func commNodes(net *topo.Network, rnics []*roce.RNIC, idx []int) []*amcast.Node {
	nodes := make([]*amcast.Node, len(idx))
	for i, j := range idx {
		nodes[i] = &amcast.Node{Host: net.Hosts[j], RNIC: rnics[j]}
	}
	return nodes
}

// DefaultTestbedConfig is the calibrated 4-node HPL problem: a compute rate
// that makes baseline PB communication ~18% of JCT, so the paper's 67% PB
// reduction yields the reported ~12% end-to-end gain (HPL is
// computation-intensive, §V-B2).
func DefaultTestbedConfig(p, q int) Config {
	return Config{N: 8192, NB: 256, P: p, Q: q, GFlops: 340}
}
