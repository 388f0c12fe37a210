package cepheus

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// auditMustBeClean fails the test with the auditor's own report when any
// checker fired, and sanity-checks that the auditor actually saw the run.
func auditMustBeClean(t *testing.T, c *Cluster) {
	t.Helper()
	if c.Aud.Seen() == 0 {
		t.Fatal("auditor observed no events")
	}
	if !c.Aud.Clean() {
		var sb strings.Builder
		c.Aud.Report(&sb)
		t.Fatalf("auditor flagged a clean workload:\n%s", sb.String())
	}
}

// auditClean is a traced inspect that applies auditMustBeClean.
func auditClean(t *testing.T) func(*Cluster, []obs.Event) {
	return func(c *Cluster, _ []obs.Event) { auditMustBeClean(t, c) }
}

// TestAuditCleanTestbed: a lossless testbed broadcast must audit clean.
func TestAuditCleanTestbed(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{Seed: 1})
	c.EnableAudit()
	b, err := c.Broadcaster(SchemeCepheus, []int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBcastErr(b, 0, 256<<10); err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(c.Now() + sim.Millisecond)
	auditMustBeClean(t, c)
}

// TestAuditCleanLossy: random data+control loss plus a core-switch
// crash/restart cycle mid-transfer (the TestMetricsFabricMatchesWalk
// workload) exercises retransmission, NACKs, MFT wipes and unknown-group
// drops — all of which are protocol-legal and must not trip any checker.
func TestAuditCleanLossy(t *testing.T) {
	t.Parallel()
	c := NewFatTree(4, Options{Seed: 7})
	c.EnableAudit()
	members := []int{0, 3, 6, 9, 12, 15}
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLossRate(0.01)
	c.SetControlLossRate(0.005)
	if _, err := c.RunBcastErr(b, 0, 512<<10); err != nil {
		t.Fatal(err)
	}
	sw := c.Net.Switches[len(c.Net.Switches)-1]
	var done bool
	b.Bcast(0, 512<<10, func() { done = true })
	c.SettleUntil(c.Now() + 50*sim.Microsecond)
	sw.Crash()
	c.SettleUntil(c.Now() + 200*sim.Microsecond)
	sw.Restart()
	c.SettleUntil(c.Now() + 5*sim.Millisecond)
	_ = done
	c.SettleUntil(c.Now() + sim.Millisecond)
	auditMustBeClean(t, c)
}

// TestAuditCleanChaos is the in-tree analogue of `faultsim -scenario chaos
// -audit`: a seeded fault storm on a leaf-spine fabric under the resilient
// broadcast pipeline, audited end to end across three seeds.
func TestAuditCleanChaos(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("seeded fault storms in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := NewLeafSpine(2, 2, 4, Options{Seed: seed})
			c.EnableAudit()
			members := make([]int, c.Hosts())
			for i := range members {
				members[i] = i
			}
			rg, err := c.NewResilientGroup(members, 0, RecoveryOptions{
				Window:          500 * sim.Microsecond,
				ReprobeInterval: 2 * sim.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			in := fault.NewInjector(c.Net)
			var links []*simnet.Port
			for _, sw := range c.Net.Switches[:2] {
				for _, pt := range sw.Ports {
					if _, ok := pt.Peer.Dev.(*simnet.Switch); ok {
						links = append(links, pt)
					}
				}
			}
			const horizon = 20 * sim.Millisecond
			if _, err := in.Chaos(fault.ChaosConfig{
				Seed: seed, Horizon: horizon, Events: 4,
				MinDowntime: 2 * sim.Millisecond, MaxDowntime: 6 * sim.Millisecond,
				Links: links, Switches: c.Net.Switches[2:], FlapFraction: 0.25,
			}); err != nil {
				t.Fatal(err)
			}
			minRuntime := c.Now() + horizon + 8*sim.Millisecond
			for i := 0; i < 2 || c.Now() < minRuntime; i++ {
				start := c.Now()
				done := false
				rg.Bcast(0, 1<<20, func() { done = true })
				if err := c.Run(start+60*sim.Second, func() bool { return done }); err != nil {
					t.Fatalf("broadcast %d wedged: %v", i, err)
				}
			}
			auditMustBeClean(t, c)
		})
	}
}

// TestAuditCorruptedTrace replays a real testbed trace through a fresh
// auditor, first pristine (must be clean), then with a deliberately
// duplicated DELIVER event — the duplicate must trip the delivery checker.
func TestAuditCorruptedTrace(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{Seed: 1})
	rec := c.EnableTrace(1 << 20)
	b, err := c.Broadcaster(SchemeCepheus, []int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBcastErr(b, 0, 64<<10); err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(c.Now() + sim.Millisecond)
	evs := rec.Events()

	cfg := obs.AuditConfig{WindowPkts: c.RNICs[0].Cfg.WindowPkts}
	pristine := obs.NewAuditor(cfg)
	for i := range evs {
		pristine.Observe(&evs[i])
	}
	if !pristine.Clean() {
		var sb strings.Builder
		pristine.Report(&sb)
		t.Fatalf("pristine trace not clean:\n%s", sb.String())
	}

	// Corrupt: re-deliver an already-delivered packet at the same receiver.
	var dup *obs.Event
	for i := range evs {
		if evs[i].Kind == obs.KDeliver {
			dup = &evs[i]
			break
		}
	}
	if dup == nil {
		t.Fatal("trace has no DELIVER events")
	}
	corrupted := obs.NewAuditor(cfg)
	for i := range evs {
		corrupted.Observe(&evs[i])
	}
	replay := *dup
	replay.At = evs[len(evs)-1].At + 1
	corrupted.Observe(&replay)
	if corrupted.Clean() {
		t.Fatal("duplicated DELIVER did not trip the auditor")
	}
	found := false
	for _, v := range corrupted.Violations() {
		if v.Check == "deliver" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a 'deliver' checker violation, got: %+v", corrupted.Violations())
	}
}

// auditWorkload runs the traced k=8 workload with the auditor attached and
// returns (events seen, violations).
func auditWorkload(t *testing.T) (seen, violations uint64) {
	t.Helper()
	k8Workload(1).traced(t, 1<<20, func(c *Cluster) { c.EnableAudit() }, func(c *Cluster, evs []obs.Event) {
		seen, violations = c.Aud.Seen(), c.Aud.ViolationCount()
		if seen != uint64(len(evs)) {
			t.Fatalf("auditor saw %d events, the recorder holds %d", seen, len(evs))
		}
	})
	return seen, violations
}

// TestAuditWorkerInvariance: the auditor's coverage and verdict on the k=8
// workload are clean and the same on a second run. The name dates from
// when the comparison was across worker counts; one engine is left.
func TestAuditWorkerInvariance(t *testing.T) {
	t.Parallel()
	refSeen, refViol := auditWorkload(t)
	if refSeen == 0 || refViol != 0 {
		t.Fatalf("audit saw %d events with %d violations, want a clean audit of a non-empty trace", refSeen, refViol)
	}
	if seen, viol := auditWorkload(t); seen != refSeen || viol != refViol {
		t.Errorf("second run: auditor saw %d events / %d violations, first saw %d / %d", seen, viol, refSeen, refViol)
	}
}
