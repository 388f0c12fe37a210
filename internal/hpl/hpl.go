// Package hpl models the High-Performance Linpack application the paper
// accelerates (§V-B2). The simulated schedule follows HPL's three phases
// per iteration — Panel Factorization (PF), Panel Broadcast (PB) along each
// process row, and Update whose Row Swap (RS) step broadcasts along each
// process column — with compute as calibrated delays and communication run
// through the network simulator using pluggable broadcast algorithms
// (increasing-ring and "long" for the baseline, Cepheus for the accelerated
// runs). A closed-form analytic model covers the paper's supplementary
// 128x128-grid simulation.
package hpl

import (
	"fmt"

	cepheus "repro"
	"repro/internal/amcast"
	"repro/internal/sim"
)

// Config describes the HPL run.
type Config struct {
	// N is the global matrix order; NB the blocking factor.
	N, NB int
	// P, Q shape the process grid; the testbed uses 1x4 (PB-only) and 4x1
	// (RS-only).
	P, Q int
	// GFlops is the per-node DGEMM rate used for the compute model.
	GFlops float64
}

// Result decomposes the job completion time.
type Result struct {
	JCT        sim.Time
	PF         sim.Time // panel factorization (compute)
	PB         sim.Time // panel broadcast (communication)
	RS         sim.Time // row swap (communication)
	Update     sim.Time // trailing update (compute)
	Iterations int
}

// Comm returns the total communication time.
func (r Result) Comm() sim.Time { return r.PB + r.RS }

// Others returns PF plus Update — the paper's "Others" bar in Fig 11a.
func (r Result) Others() sim.Time { return r.PF + r.Update }

// Cluster runs HPL over a grid of nodes with pluggable row/column
// broadcasters. RowBcasts[p] broadcasts within process row p (Q nodes);
// ColBcasts[q] within column q (P nodes). Either is empty when that grid
// dimension is 1.
type Cluster struct {
	tb        *cepheus.Cluster
	Cfg       Config
	RowBcasts []amcast.Broadcaster
	ColBcasts []amcast.Broadcaster
}

// Run executes the factorization schedule and returns the decomposed JCT,
// or an error if a broadcast phase stalls. Phases run sequentially within
// an iteration, as in HPL without lookahead.
func (c *Cluster) Run() (Result, error) {
	tb := c.tb
	cfg := c.Cfg
	steps := cfg.N / cfg.NB
	res := Result{Iterations: steps}
	start := tb.Now()

	flopsTime := func(flops float64) sim.Time {
		return sim.Time(flops / (cfg.GFlops * 1e9) * 1e9)
	}

	// bcastAll runs one broadcast in every communicator of a dimension
	// concurrently and waits for all (rows do their PBs in parallel).
	bcastAll := func(phase string, bs []amcast.Broadcaster, root, bytes int) (sim.Time, error) {
		if len(bs) == 0 || bytes <= 0 {
			return 0, nil
		}
		t0 := tb.Now()
		remaining := len(bs)
		for _, b := range bs {
			b.Bcast(root, bytes, func() { remaining-- })
		}
		if err := tb.Run(sim.MaxTime, func() bool { return remaining == 0 }); err != nil {
			return 0, fmt.Errorf("hpl: %s of %dB stalled: %w", phase, bytes, err)
		}
		return tb.Now() - t0, nil
	}

	for k := 0; k < steps; k++ {
		mk := cfg.N - k*cfg.NB     // trailing matrix rows
		nk := cfg.N - (k+1)*cfg.NB // trailing matrix cols after this panel
		localM := (mk + cfg.P - 1) / cfg.P
		localN := (nk + cfg.Q - 1) / cfg.Q

		// PF: factorize the NB-wide panel (column of P processes works on
		// its localM x NB slab).
		pf := flopsTime(2 * float64(cfg.NB) * float64(cfg.NB) * float64(localM))
		tb.SettleUntil(tb.Now() + pf)
		res.PF += pf

		// PB: broadcast the factored panel along each process row. Root is
		// the column owning panel k.
		if cfg.Q > 1 {
			t, err := bcastAll("panel broadcast", c.RowBcasts, k%cfg.Q, localM*cfg.NB*8)
			if err != nil {
				return res, err
			}
			res.PB += t
		}

		// RS: swap/broadcast the pivot rows along each process column.
		if cfg.P > 1 {
			t, err := bcastAll("row swap", c.ColBcasts, k%cfg.P, cfg.NB*localN*8)
			if err != nil {
				return res, err
			}
			res.RS += t
		}

		// Update: trailing DGEMM on each node's local block.
		up := flopsTime(2 * float64(cfg.NB) * float64(localM) * float64(localN))
		tb.SettleUntil(tb.Now() + up)
		res.Update += up
	}
	res.JCT = tb.Now() - start
	return res, nil
}
