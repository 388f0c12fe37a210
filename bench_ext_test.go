package cepheus

// IRN loss tolerance, the §V-C recommendation. The reduce and PS-training
// extensions live with the paper experiments in internal/paper.

import (
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/roce"
	"repro/internal/sim"
)

// BenchmarkIRNLossTolerance extends Fig 13: the same 128MB multicast at
// group 64 under loss, go-back-N vs IRN endpoints. The paper: "the
// recently-proposed IRN can substantially enhance Cepheus' tolerance to
// higher loss rates."
func BenchmarkIRNLossTolerance(b *testing.B) {
	const size = 128 << 20
	const group = 65
	run := func(irn bool, loss float64) float64 {
		tr := roce.DefaultConfig()
		tr.DCQCN = true
		tr.IRN = irn
		exp.ApplyCell(&tr.MTU, &tr.WindowPkts, size, tr.MTU, 2048)
		lossCell := loss * float64(tr.MTU) / 1024.0
		c := NewFatTree(16, Options{Transport: &tr})
		nodes := make([]int, group)
		for i := range nodes {
			nodes[i] = i
		}
		br, err := c.Broadcaster(SchemeCepheus, nodes, 0)
		if err != nil {
			b.Fatal(err)
		}
		c.SetLossRate(lossCell)
		return float64(c.RunBcast(br, 0, size))
	}
	for i := 0; i < b.N; i++ {
		t := exp.NewTable("Extension: IRN vs go-back-N under loss (128MB, 64 receivers)",
			"loss", "GBN FCT", "IRN FCT", "GBN norm", "IRN norm")
		var gbnBase, irnBase float64
		for _, loss := range []float64{0, 1e-5, 1e-4} {
			gbn := run(false, loss)
			irn := run(true, loss)
			if loss == 0 {
				gbnBase, irnBase = gbn, irn
			}
			t.Add(fmt.Sprintf("%.0e", loss),
				sim.Time(gbn).String(), sim.Time(irn).String(),
				fmt.Sprintf("%.2f", gbnBase/gbn), fmt.Sprintf("%.2f", irnBase/irn))
			// IRN's benefit shows at moderate loss, where selective repair
			// keeps throughput near lossless while go-back-N collapses; at
			// 1e-4 both are limited by the serialized in-network NACK
			// repairs, so no ordering is asserted there.
			if loss == 1e-5 && irn >= gbn {
				b.Errorf("IRN (%v) not faster than GBN (%v) at 1e-5", sim.Time(irn), sim.Time(gbn))
			}
		}
		if i == 0 {
			fmt.Print(t)
		}
	}
}
