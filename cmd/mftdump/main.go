// mftdump builds a multicast group on a chosen topology, runs MRP
// registration and one priming message, then dumps every switch's MFT —
// the Path Index, the Path Table with bridging state, and the group-level
// feedback aggregation state. Useful for inspecting how the MDT was formed.
package main

import (
	"flag"
	"fmt"
	"log"

	cepheus "repro"
	"repro/internal/roce"
	"repro/internal/sim"
)

func main() {
	fattree := flag.Int("fattree", 4, "fat-tree arity (0 = single-switch testbed)")
	hosts := flag.Int("hosts", 4, "testbed host count when -fattree=0")
	group := flag.Int("group", 4, "group size")
	flag.Parse()

	var c *cepheus.Cluster
	if *fattree > 0 {
		c = cepheus.NewFatTree(*fattree, cepheus.Options{})
	} else {
		c = cepheus.NewTestbed(*hosts, cepheus.Options{})
	}
	if *group > c.Hosts() {
		log.Fatalf("group %d exceeds %d hosts", *group, c.Hosts())
	}
	nodes := make([]int, *group)
	for i := range nodes {
		nodes[i] = i
	}
	g, err := c.NewGroup(nodes, 0)
	if err != nil {
		log.Fatal(err)
	}
	// Prime the tree with one small message so AckOutPort and the source
	// identity are learned.
	for _, m := range g.Members[1:] {
		m.QP.OnMessage = func(roce.Message) {}
	}
	done := false
	g.Members[0].QP.PostSend(4096, func() { done = true })
	if err := c.Run(sim.MaxTime, func() bool { return done }); err != nil {
		log.Fatalf("priming message stalled: %v", err)
	}

	fmt.Printf("McstID %v, %d members, leader %s\n\n", g.ID, len(g.Members), g.Members[0].Host.Name)
	for i, sw := range c.Net.Switches {
		mft := c.Accels[i].MFT(g.ID)
		if mft == nil {
			continue
		}
		fmt.Printf("%s  (mem %dB, ackOut=%d src=%v:%d aggAck=%d tri=%d)\n",
			sw.Name, mft.MemoryBytes(), mft.AckOutPort, mft.SrcIP, mft.SrcQP, mft.AggAckPSN, mft.TriPort)
		for _, e := range mft.Paths {
			peer := sw.Ports[e.Port].Peer.Dev.DeviceName()
			ack := "-" // no feedback on this path (e.g. the source-facing port)
			if e.AckPSN > -1<<62 {
				ack = fmt.Sprint(e.AckPSN)
			}
			if e.NextIsHost {
				fmt.Printf("  port %-3d -> host   %-12s bridge dst=%v qp=%d ackPSN=%s\n",
					e.Port, peer, e.DstIP, e.DstQP, ack)
			} else {
				fmt.Printf("  port %-3d -> switch %-12s ackPSN=%s\n", e.Port, peer, ack)
			}
		}
		fmt.Println()
	}
}
