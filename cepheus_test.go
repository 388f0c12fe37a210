package cepheus

import (
	"testing"

	"repro/internal/roce"
	"repro/internal/sim"
)

func TestNewTestbedDefaults(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	if c.Hosts() != 4 {
		t.Fatalf("hosts = %d", c.Hosts())
	}
	if len(c.Accels) != 1 || len(c.RNICs) != 4 || len(c.Agents) != 4 {
		t.Fatal("cluster wiring incomplete")
	}
}

func TestNewFatTreeDefaults(t *testing.T) {
	t.Parallel()
	c := NewFatTree(4, Options{})
	if c.Hosts() != 16 {
		t.Fatalf("hosts = %d", c.Hosts())
	}
	if len(c.Accels) != 20 {
		t.Fatalf("accels = %d, want one per switch", len(c.Accels))
	}
}

func TestNewGroupRegisters(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	g, err := c.NewGroup([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Registered() {
		t.Fatal("group not registered")
	}
	if c.Accels[0].MFT(g.ID) == nil {
		t.Fatal("no MFT on the ToR")
	}
}

func TestEverySchemeRuns(t *testing.T) {
	t.Parallel()
	schemes := []Scheme{
		SchemeCepheus, SchemeBinomial, SchemeChain, SchemeRing,
		SchemeNUnicast, SchemeRDMC, SchemeLong,
	}
	for _, s := range schemes {
		c := NewTestbed(4, Options{})
		b, err := c.Broadcaster(s, []int{0, 1, 2, 3}, 4)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if jct := c.RunBcast(b, 0, 256<<10); jct <= 0 {
			t.Fatalf("%s: JCT %v", s, jct)
		}
	}
}

func TestUnknownSchemeErrors(t *testing.T) {
	t.Parallel()
	c := NewTestbed(2, Options{})
	if _, err := c.Broadcaster("bogus", []int{0, 1}, 0); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

// TestInvalidMemberLists: a member list no group can be built over is an
// error from both NewGroup and an overlay Broadcaster, never a panic or a
// registration timeout.
func TestInvalidMemberLists(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		members []int
		leader  int
	}{
		{"empty", []int{}, 0},
		{"leader past the list", []int{0, 1}, 2},
		{"negative leader", []int{0, 1}, -1},
		{"host past the cluster", []int{0, 4}, 0},
		{"negative host", []int{0, -1}, 0},
		{"duplicate member", []int{0, 0, 1}, 0},
	}
	for _, tc := range cases {
		c := NewTestbed(4, Options{})
		if g, err := c.NewGroup(tc.members, tc.leader); err == nil || g != nil {
			t.Errorf("%s: NewGroup = (%v, %v), want an error", tc.name, g, err)
		}
		if tc.leader != 0 {
			continue // overlays have no leader
		}
		if b, err := c.Broadcaster(SchemeBinomial, tc.members, 0); err == nil || b != nil {
			t.Errorf("%s: Broadcaster = (%v, %v), want an error", tc.name, b, err)
		}
		if comm, err := c.Comm(tc.members); err == nil || comm != nil {
			t.Errorf("%s: Comm = (%v, %v), want an error", tc.name, comm, err)
		}
	}
}

func TestOptionsOverride(t *testing.T) {
	t.Parallel()
	tr := roce.DefaultConfig()
	tr.MTU = 4096
	c := NewTestbed(2, Options{Seed: 7, Transport: &tr, LinkRate: 25e9, PropDelay: 2 * sim.Microsecond})
	if c.Net.LinkRate != 25e9 || c.Net.PropDelay != 2*sim.Microsecond {
		t.Fatal("link options not applied")
	}
	if c.RNICs[0].Cfg.MTU != 4096 {
		t.Fatal("transport option not applied")
	}
}

func TestSeedDeterminism(t *testing.T) {
	t.Parallel()
	run := func() sim.Time {
		c := NewTestbed(4, Options{Seed: 42})
		c.SetLossRate(1e-3)
		b, err := c.Broadcaster(SchemeCepheus, []int{0, 1, 2, 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c.RunBcast(b, 0, 4<<20)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestLossInjectionThroughAPI(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	c.SetLossRate(0.01)
	b, err := c.Broadcaster(SchemeCepheus, []int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunBcast(b, 0, 8<<20)
	if c.TotalDrops() == 0 {
		t.Fatal("loss injection never fired")
	}
}
