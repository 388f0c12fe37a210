// Parameter-server training (the paper's DNN-training motivation, plus the
// many-to-one reduction named as future work): each iteration the PS
// multicasts the model to every worker and the fabric aggregates the
// workers' gradients on the way back. Compare against chain broadcast +
// unicast gather.
package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/ps"
	"repro/internal/sim"
)

func main() {
	table := exp.NewTable("PS training: 6 workers, 64MB model, 4 iterations",
		"scheme", "JCT", "bcast", "reduce", "compute", "grad check")
	for _, scheme := range []ps.Scheme{ps.SchemeCepheus, ps.SchemeAMcast} {
		eng := sim.New(1)
		c := ps.NewTestbed(eng, ps.DefaultConfig(6), scheme)
		res := c.Run()
		check := "ok"
		for _, got := range res.GradSums {
			if got != c.ExpectedGradSum() {
				check = fmt.Sprintf("BROKEN (%v != %v)", got, c.ExpectedGradSum())
			}
		}
		table.Add(string(scheme), res.JCT.String(), res.Bcast.String(),
			res.Reduce.String(), res.Compute.String(), check)
	}
	fmt.Print(table)
	fmt.Println("\nThe gradient aggregate is computed IN the switches (per-PSN")
	fmt.Println("combining over the multicast distribution tree) and verified")
	fmt.Println("numerically at the PS each iteration.")
}
