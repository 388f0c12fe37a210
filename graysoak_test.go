package cepheus

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestSafeguardTripsOnDegradedLink is the gray-failure blind-spot scenario:
// a member's access link goes lossy — alive, carrying traffic, dropping a
// fraction of it — and the safeguard must trip on throughput collapse even
// though no link ever reports down. Fallback unicast then completes the
// broadcast over the same lossy link via retransmission, and after Repair
// the re-probe loop restores native multicast.
func TestSafeguardTripsOnDegradedLink(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	rg, err := c.NewResilientGroup([]int{0, 1, 2, 3}, 0, fastRecovery())
	if err != nil {
		t.Fatalf("initial registration: %v", err)
	}
	in := fault.NewInjector(c.Net)

	// Healthy broadcast first: the safeguard learns the native norm.
	runRBcast(t, c, rg, 0, 1<<20)
	if !rg.Native() {
		t.Fatalf("healthy broadcast not native: %+v", rg.Stats)
	}

	// Member 3's access link degrades to 30% frame loss in both directions —
	// gray, not fail-stop: the link stays up the whole time.
	link := in.HostLink(3)
	in.Degrade(link, simnet.Impairment{LossRate: 0.3}, 99)
	runRBcast(t, c, rg, 0, 8<<20)

	if rg.Stats.Trips == 0 {
		t.Fatalf("safeguard never tripped on the degraded link: %+v", rg.Stats)
	}
	if rg.Stats.FallbackDeliveries != 3 {
		t.Fatalf("fallback deliveries = %d, want 3", rg.Stats.FallbackDeliveries)
	}
	if rg.Stats.CorruptDeliveries != 0 || rg.Stats.DupDeliveries != 0 {
		t.Fatalf("delivery corruption: %+v", rg.Stats)
	}
	m := c.Metrics()
	if m.ImpairDrops == 0 {
		t.Fatal("impairment never dropped a frame; test is vacuous")
	}
	if m.FaultDrops != 0 {
		t.Fatalf("gray scenario recorded %d fail-stop drops; the link must stay up", m.FaultDrops)
	}

	// Repair the wire; the re-probe loop must restore native multicast.
	in.Repair(link)
	before := rg.Stats.NativeDeliveries
	runUntil(t, c, rg.Native, 200*sim.Millisecond, "restore to native after repair")
	runRBcast(t, c, rg, 0, 1<<20)
	if rg.Stats.NativeDeliveries != before+3 {
		t.Fatalf("post-repair broadcast not native: %+v", rg.Stats)
	}
}

// TestPrimedSafeguardReTripsOnStillLossyLink covers the restore-onto-lossy
// relapse: the safeguard trips, the re-probe loop restores native service
// while the wire is *still* degraded, and the fresh safeguard — primed with
// the pre-fault norm — must trip again instead of adopting the degraded rate
// as the new normal.
func TestPrimedSafeguardReTripsOnStillLossyLink(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	rg, err := c.NewResilientGroup([]int{0, 1, 2, 3}, 0, fastRecovery())
	if err != nil {
		t.Fatalf("initial registration: %v", err)
	}
	in := fault.NewInjector(c.Net)
	runRBcast(t, c, rg, 0, 1<<20)

	link := in.HostLink(3)
	in.Degrade(link, simnet.Impairment{LossRate: 0.3}, 7)
	runRBcast(t, c, rg, 0, 8<<20)
	if rg.Stats.Trips == 0 {
		t.Fatalf("safeguard never tripped: %+v", rg.Stats)
	}

	// Registration control traffic gets through 30% loss (bounded retries),
	// so the re-probe loop restores native mode onto the still-lossy link.
	runUntil(t, c, rg.Native, 500*sim.Millisecond, "restore onto still-lossy link")
	trips := rg.Stats.Trips

	// The next heavy broadcast rides native multicast over the degraded wire:
	// the primed safeguard still holds the healthy norm and must re-trip.
	runRBcast(t, c, rg, 0, 8<<20)
	if rg.Stats.Trips <= trips {
		t.Fatalf("primed safeguard did not re-trip on the still-lossy link: %+v", rg.Stats)
	}

	in.Repair(link)
	runUntil(t, c, rg.Native, 500*sim.Millisecond, "final restore after repair")
	runRBcast(t, c, rg, 0, 1<<20)
	if !rg.Native() {
		t.Fatalf("not native after repair: %+v", rg.Stats)
	}
}

// graySoakWorkload runs a gray-only soak (loss, burst, corruption, latency,
// bandwidth, control storms — no fail-stop), broadcasting once in the middle
// of every episode, and returns the canonical trace bytes plus the SLO report
// with per-episode goodput.
func graySoakWorkload(t *testing.T, seed int64) ([]byte, string) {
	t.Helper()
	c := NewLeafSpine(2, 2, 4, Options{Seed: seed})
	rec := c.EnableTrace(1 << 21)
	in := fault.NewInjector(c.Net)

	gray := make([]*simnet.Port, 0, len(c.Net.Hosts))
	for _, h := range c.Net.Hosts {
		gray = append(gray, h.NIC)
	}
	cfg := fault.SoakConfig{
		Seed:        seed,
		Episodes:    8,
		Horizon:     30 * sim.Millisecond,
		MinDuration: 2 * sim.Millisecond,
		MaxDuration: 6 * sim.Millisecond,
		GrayLinks:   gray,
	}
	plan, err := in.Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}

	members := make([]int, len(c.Net.Hosts))
	for i := range members {
		members[i] = i
	}
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.RunBcastErr(b, 0, 256<<10); err != nil {
			t.Fatal(err)
		}
	}
	// The broadcasts above end long before the first episode starts; one
	// more broadcast in the middle of each episode sends frames through the
	// impaired ports.
	for _, ep := range plan {
		if mid := ep.Start + (ep.End-ep.Start)/2; c.Now() < mid {
			c.SettleUntil(mid)
		}
		if _, err := c.RunBcastErr(b, 0, 256<<10); err != nil {
			t.Fatalf("broadcast during episode %d (%s): %v", ep.Index, ep.Kind, err)
		}
	}
	const horizon = 50 * sim.Millisecond
	c.SettleUntil(horizon)
	evs := rec.EventsUntil(horizon)
	if len(evs) == 0 {
		t.Fatal("trace captured nothing")
	}
	if rec.Lost() != 0 {
		t.Fatalf("flight recorder overflowed (lost %d)", rec.Lost())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	report := fault.ComputeSLO(plan, nil)
	slo := report.String()
	for _, ep := range report.PerEpisode {
		slo += fmt.Sprintf("\nepisode %d %s %s", ep.Index, ep.Kind, ep.Target)
	}
	return buf.Bytes(), slo
}

// TestGraySoakRepeatable: the same gray-only soak run twice yields a
// byte-identical canonical trace and an identical SLO report.
func TestGraySoakRepeatable(t *testing.T) {
	t.Parallel()
	ref, refSLO := graySoakWorkload(t, 1)
	got, slo := graySoakWorkload(t, 1)
	if !bytes.Equal(ref, got) {
		t.Errorf("second run's trace diverges (%d vs %d bytes)", len(got), len(ref))
	}
	if slo != refSLO {
		t.Errorf("second run's SLO report diverges:\n--- first\n%s\n--- second\n%s", refSLO, slo)
	}
}

// TestPinnedGraySoak pins graySoakWorkload's trace and SLO report at seed 1.
// The goldens were captured while impaired ports still dispatched their
// per-frame events through typed handlers; they pin that the impaired-port
// path keeps its exact event order across refactors, which a
// same-binary repeat cannot show.
func TestPinnedGraySoak(t *testing.T) {
	t.Parallel()
	trace, slo := graySoakWorkload(t, 1)
	for _, r := range []string{`"reason":"impair-loss"`, `"reason":"corrupt"`, `"reason":"ctrl-storm"`} {
		if !bytes.Contains(trace, []byte(r)) {
			t.Errorf("trace has no %s drop; the pin does not cover the impaired path", r)
		}
	}
	const wantTrace = "8d1cbc3c3aa2c0d490b55dc54fba1650430e4c904cb741caa1a6291b84b2ea9c"
	if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != wantTrace || len(trace) != 26943395 {
		t.Errorf("trace drifted: sha256 %s (%d bytes), want %s (26943395 bytes)", got, len(trace), wantTrace)
	}
	const wantSLO = "8dbb0d4d74c7c9cb1859eef61908c78f10021d6ed762adde2d9e68e42e49d106"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(slo))); got != wantSLO {
		t.Errorf("SLO report drifted: sha256 %s, want %s; report:\n%s", got, wantSLO, slo)
	}
}
