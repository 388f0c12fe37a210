package cepheus

// End-to-end failure injection across the public API: the §V-D safeguard
// pipeline from detection to AMcast fallback, plus an in-flight pathology
// (throughput collapse) while an application is running.

import (
	"testing"

	"repro/internal/amcast"
	"repro/internal/core"
	"repro/internal/roce"
	"repro/internal/sim"
)

func TestFailoverRegistrationToFallback(t *testing.T) {
	t.Parallel()
	acc := core.DefaultAccelConfig()
	acc.MaxGroups = 1
	c := NewTestbed(4, Options{Accel: &acc})
	if _, err := c.NewGroup([]int{0, 1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	_, err := c.NewGroup([]int{0, 1, 2, 3}, 0)
	if err == nil {
		t.Fatal("over-capacity registration accepted")
	}
	// The application-side policy: on registration failure, run the same
	// workload over the default AMcast approach.
	var b amcast.Broadcaster
	b, berr := c.Broadcaster(SchemeChain, []int{0, 1, 2, 3}, 4)
	if berr != nil {
		t.Fatal(berr)
	}
	if jct := c.RunBcast(b, 0, 4<<20); jct <= 0 {
		t.Fatal("fallback broadcast failed")
	}
}

func TestFailoverMidStreamCollapse(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	g, err := c.NewGroup([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := g.Members[0].QP
	for _, m := range g.Members[1:] {
		m.QP.OnMessage = func(roce.Message) {}
	}
	fellBack := false
	sg := core.NewSafeguard(g.Members[0].Host.Engine(), src, 0.5, sim.Millisecond, func(reason string) {
		fellBack = true
	})
	streaming := true
	var post func()
	post = func() {
		if streaming {
			src.PostSend(1<<20, post)
		}
	}
	post()
	c.SettleUntil(10 * sim.Millisecond)
	if sg.Tripped() {
		t.Fatal("safeguard tripped on healthy traffic")
	}
	// Misconfiguration strikes: pathological loss on the ToR.
	c.SetLossRate(0.9)
	c.SettleUntil(150 * sim.Millisecond)
	streaming = false
	if !fellBack {
		t.Fatal("safeguard never detected the collapse")
	}
	// Recovery: drain, then run the fallback AMcast path over the (still
	// lossy, but reliable-transport) unicast overlay.
	c.SetLossRate(0.01)
	b, err := c.Broadcaster(SchemeChain, []int{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if jct := c.RunBcast(b, 0, 1<<20); jct <= 0 {
		t.Fatal("post-failure fallback broadcast failed")
	}
}

func TestLeafSpineClusterRuns(t *testing.T) {
	t.Parallel()
	c := NewLeafSpine(4, 2, 4, Options{})
	if c.Hosts() != 16 {
		t.Fatalf("hosts = %d", c.Hosts())
	}
	// A cross-leaf group with the full machinery.
	b, err := c.Broadcaster(SchemeCepheus, []int{0, 5, 10, 15}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if jct := c.RunBcast(b, 0, 4<<20); jct <= 0 {
		t.Fatal("leaf-spine multicast failed")
	}
}
