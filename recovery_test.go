package cepheus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// fastRecovery makes the detect/repair cycle quick enough for short tests.
func fastRecovery() RecoveryOptions {
	return RecoveryOptions{
		Window:            500 * sim.Microsecond,
		Deadline:          50 * sim.Millisecond,
		ReprobeInterval:   2 * sim.Millisecond,
		RestoreHysteresis: 2,
	}
}

// runRBcast drives the engine until the resilient broadcast completes.
func runRBcast(t *testing.T, c *Cluster, rg *ResilientGroup, root, size int) sim.Time {
	t.Helper()
	start := c.Now()
	done := false
	rg.Bcast(root, size, func() { done = true })
	if err := c.Run(start+60*sim.Second, func() bool { return done }); err != nil {
		t.Fatalf("resilient bcast of %dB did not complete (%v, stats=%+v)", size, err, rg.Stats)
	}
	return c.Now() - start
}

// runUntil drives the engine until cond holds or the deadline passes.
func runUntil(t *testing.T, c *Cluster, cond func() bool, window sim.Time, what string) {
	t.Helper()
	if err := c.Run(c.Now()+window, cond); err != nil {
		t.Fatalf("%s: not reached within %v: %v", what, window, err)
	}
}

// TestRecoveryFullCycleSwitchCrash is the scripted end-to-end scenario the
// issue demands: native multicast → ToR crash wipes the MFT mid-transfer →
// safeguard trips → AMcast fallback completes the broadcast over repaired
// routes → re-probe re-registers over the restarted switch → native
// multicast restored — all deliveries byte-exact, asserted via counters.
func TestRecoveryFullCycleSwitchCrash(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	rg, err := c.NewResilientGroup([]int{0, 1, 2, 3}, 0, fastRecovery())
	if err != nil {
		t.Fatalf("initial registration: %v", err)
	}
	in := fault.NewInjector(c.Net)

	// Phase 1: healthy native broadcast.
	runRBcast(t, c, rg, 0, 1<<20)
	if rg.Stats.NativeDeliveries != 3 || !rg.Native() {
		t.Fatalf("healthy broadcast not native: %+v", rg.Stats)
	}

	// Phase 2: the ToR fail-stops mid-transfer (a 64MB broadcast takes
	// ~5.5ms at 100Gbps; the crash lands at 2ms) and restarts 6ms later
	// with its MFT wiped.
	tor := c.Net.Switches[0]
	in.CrashAt(c.Now()+2*sim.Millisecond, tor)
	in.RestartAt(c.Now()+8*sim.Millisecond, tor)
	runRBcast(t, c, rg, 0, 64<<20)

	if rg.Stats.Trips != 1 {
		t.Fatalf("safeguard trips = %d, want 1 (stats=%+v)", rg.Stats.Trips, rg.Stats)
	}
	if rg.Stats.FallbackDeliveries != 3 {
		t.Fatalf("fallback deliveries = %d, want 3", rg.Stats.FallbackDeliveries)
	}
	if rg.Stats.CorruptDeliveries != 0 || rg.Stats.DupDeliveries != 0 {
		t.Fatalf("delivery corruption: %+v", rg.Stats)
	}
	m := c.Metrics()
	if m.MFTWipes != 1 {
		t.Fatalf("MFT wipes = %d, want 1", m.MFTWipes)
	}
	if m.CrashDrops == 0 {
		t.Fatal("crash recorded no drops despite killing an active transfer")
	}

	// Phase 3: the re-probe loop must re-register and restore native mode.
	runUntil(t, c, rg.Native, 100*sim.Millisecond, "restore to native")
	if rg.Stats.Restores != 1 || rg.Stats.SchemeSwitches != 2 {
		t.Fatalf("restore accounting wrong: %+v", rg.Stats)
	}
	if rg.Stats.Reprobes < 1 {
		t.Fatalf("no re-probe registrations recorded: %+v", rg.Stats)
	}

	// Phase 4: post-restore broadcasts ride native multicast again.
	runRBcast(t, c, rg, 0, 1<<20)
	if rg.Stats.NativeDeliveries != 6 || !rg.Native() {
		t.Fatalf("post-restore broadcast not native: %+v", rg.Stats)
	}
}

// TestRecoveryMidBcastLinkDown kills a ToR→host access link in the middle
// of a broadcast: the unreachable member stalls feedback aggregation, the
// safeguard trips, reachable members complete over unicast immediately, the
// dead member's delivery is deferred until the link heals, and native
// multicast is eventually restored. No delivery may be lost, duplicated, or
// wrongly sized.
func TestRecoveryMidBcastLinkDown(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	rg, err := c.NewResilientGroup([]int{0, 1, 2, 3}, 0, fastRecovery())
	if err != nil {
		t.Fatalf("initial registration: %v", err)
	}
	in := fault.NewInjector(c.Net)

	link := in.HostLink(3)
	in.LinkDownAt(c.Now()+2*sim.Millisecond, link)
	in.LinkUpAt(c.Now()+12*sim.Millisecond, link)
	runRBcast(t, c, rg, 0, 64<<20)

	if rg.Stats.Trips+rg.Stats.Deadlines == 0 {
		t.Fatalf("no degrade trigger fired: %+v", rg.Stats)
	}
	if rg.Stats.FallbackDeliveries != 3 {
		t.Fatalf("fallback deliveries = %d, want 3", rg.Stats.FallbackDeliveries)
	}
	if rg.Stats.DeferredSends == 0 {
		t.Fatalf("partitioned member was never deferred: %+v", rg.Stats)
	}
	if rg.Stats.CorruptDeliveries != 0 || rg.Stats.DupDeliveries != 0 {
		t.Fatalf("delivery corruption: %+v", rg.Stats)
	}
	if m := c.Metrics(); m.FaultDrops == 0 {
		t.Fatal("no frames recorded lost at the dead link")
	}
	runUntil(t, c, rg.Native, 100*sim.Millisecond, "restore to native")
	runRBcast(t, c, rg, 0, 1<<20)
	if rg.Stats.NativeDeliveries != 3 {
		t.Fatalf("post-restore broadcast not native: %+v", rg.Stats)
	}
}

// TestRegistrationUnderControlLoss drops 10% of all control-plane packets
// (MRP, confirmations, ACK/NACK/CNP) and requires registration to succeed
// within the bounded retransmission policy, then a broadcast to complete.
func TestRegistrationUnderControlLoss(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	c.SetControlLossRate(0.10)
	rg, err := c.NewResilientGroup([]int{0, 1, 2, 3}, 0, fastRecovery())
	if err != nil {
		t.Fatalf("registration under 10%% control loss: %v", err)
	}
	if !rg.Group.Registered() {
		t.Fatal("group not registered")
	}
	maxRetries := uint64(core.DefaultRegisterPolicy().MaxAttempts - 1)
	if rg.Group.Retries > maxRetries {
		t.Fatalf("retries = %d, exceeds policy bound %d", rg.Group.Retries, maxRetries)
	}
	runRBcast(t, c, rg, 0, 256<<10)
	if rg.Stats.NativeDeliveries != 3 {
		t.Fatalf("broadcast under control loss: %+v", rg.Stats)
	}
	if m := c.Metrics(); m.CtrlDrops == 0 {
		t.Fatal("control loss injection never dropped anything")
	}
}

// TestStaleEpochDataNeverForwarded: a crashed-then-restarted switch has an
// empty MFT; multicast data from the group's stale registration must be
// dropped and NACKed, never forwarded — the sender learns, degrades, and
// the data flows over unicast until re-registration.
func TestStaleEpochDataNeverForwarded(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{})
	rg, err := c.NewResilientGroup([]int{0, 1, 2, 3}, 0, fastRecovery())
	if err != nil {
		t.Fatalf("initial registration: %v", err)
	}
	in := fault.NewInjector(c.Net)

	// Crash/restart while the group is idle: the group still believes it is
	// registered, but the switch's volatile MFT is gone.
	in.CrashSwitch(c.Net.Switches[0])
	in.RestartSwitch(c.Net.Switches[0])

	runRBcast(t, c, rg, 0, 1<<20)

	if rg.Stats.NativeDeliveries != 0 {
		t.Fatalf("stale-epoch data was forwarded natively: %+v", rg.Stats)
	}
	if rg.Stats.FallbackDeliveries != 3 {
		t.Fatalf("fallback deliveries = %d, want 3", rg.Stats.FallbackDeliveries)
	}
	if rg.Stats.Invalidates != 1 {
		t.Fatalf("invalidations = %d, want 1 (stats=%+v)", rg.Stats.Invalidates, rg.Stats)
	}
	m := c.Metrics()
	if m.UnknownGroupDrops == 0 || m.UnknownGroupNacks == 0 {
		t.Fatalf("restarted switch did not drop+NACK unknown-group data: %+v", m)
	}
	if rg.Stats.CorruptDeliveries != 0 || rg.Stats.DupDeliveries != 0 {
		t.Fatalf("delivery corruption: %+v", rg.Stats)
	}
	runUntil(t, c, rg.Native, 100*sim.Millisecond, "restore to native")
	runRBcast(t, c, rg, 0, 1<<20)
	if rg.Stats.NativeDeliveries != 3 {
		t.Fatalf("post-restore broadcast not native: %+v", rg.Stats)
	}
}
