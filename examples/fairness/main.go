// Fairness and convergence (§V-C, Fig 14): a Cepheus multicast flow
// competing with unicast flows under DCQCN. f1 is a 1-to-15 multicast;
// f2 and f3 are unicasts whose receivers bottleneck f1 at different points
// in time. The CNP filter makes the multicast sender track the most
// congested path, converging to fair shares and re-grabbing bandwidth when
// a competitor leaves.
package main

import (
	"fmt"

	cepheus "repro"
	"repro/internal/roce"
	"repro/internal/sim"
)

func main() {
	tr := roce.DefaultConfig()
	tr.DCQCN = true
	tr.MTU = 4096
	c := cepheus.NewFatTree(4, cepheus.Options{Transport: &tr}) // 16 hosts

	members := make([]int, 16)
	for i := range members {
		members[i] = i
	}
	g, err := c.NewGroup(members, 0)
	if err != nil {
		panic(err)
	}
	f1 := g.Members[0].QP
	for _, m := range g.Members[1:] {
		m.QP.OnMessage = func(roce.Message) {}
	}

	mk := func(src, dst int) (*roce.QP, *roce.QP) {
		sq := c.RNICs[src].CreateQP()
		rq := c.RNICs[dst].CreateQP()
		sq.Connect(c.Host(dst).IP, rq.QPN)
		rq.Connect(c.Host(src).IP, sq.QPN)
		return sq, rq
	}
	f2, f2r := mk(1, 2)
	f3, f3r := mk(3, 4)

	stream := func(qp *roce.QP, stop *bool) {
		var post func()
		post = func() {
			if !*stop {
				qp.PostSend(1<<20, post)
			}
		}
		post()
	}
	var stop1, stop2, stop3 bool

	eng := c.Net.Eng
	stream(f1, &stop1)
	eng.Schedule(5*sim.Millisecond, func() { stream(f2, &stop2) })
	eng.Schedule(20*sim.Millisecond, func() { stop2 = true })
	eng.Schedule(25*sim.Millisecond, func() { stream(f3, &stop3) })

	fmt.Println("t(ms)  f1-mcast(Gbps)  f2-unicast(Gbps)  f3-unicast(Gbps)")
	var last1, last2, last3 uint64
	f1probe := g.Members[1].QP // one representative receiver of the multicast
	for t := sim.Millisecond; t <= 40*sim.Millisecond; t += sim.Millisecond {
		eng.RunUntil(t)
		p1, p2, p3 := f1probe.GoodputBytes, f2r.GoodputBytes, f3r.GoodputBytes
		fmt.Printf("%5d  %14.1f  %16.1f  %16.1f\n", t/sim.Millisecond,
			float64(p1-last1)*8/1e6, float64(p2-last2)*8/1e6, float64(p3-last3)*8/1e6)
		last1, last2, last3 = p1, p2, p3
	}
	stop1, stop3 = true, true
	_ = f2
}
