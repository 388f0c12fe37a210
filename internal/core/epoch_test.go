package core

import (
	"testing"

	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// replayMRP injects a full set of registration chunks for the group at the
// given epoch, as a delayed retransmission would appear on the wire.
func replayMRP(e *env, epoch uint16) {
	leader := e.group.Members[e.group.Leader]
	nodes := make([]NodeInfo, len(e.group.Members))
	for i, m := range e.group.Members {
		nodes[i] = NodeInfo{IP: m.Host.IP, QPN: m.QP.QPN, WVA: m.WVA, WRKey: m.WRKey}
	}
	chunks := chunkNodes(nodes)
	for i, ch := range chunks {
		leader.Host.Send(newMRPPacket(leader.Host.IP, &MRPPayload{
			McstID: e.group.ID, Seq: i, Total: len(chunks), Epoch: epoch,
			CtrlIP: leader.Host.IP, Nodes: ch,
		}))
	}
	e.eng.RunFor(sim.Millisecond)
}

// TestStaleMRPReplayDiscarded: once a newer-epoch registration has replaced
// the MFT, retransmitted chunks from the superseded epoch must be discarded
// — merging entries across generations could route through dead links —
// while same-epoch replays stay idempotent.
func TestStaleMRPReplayDiscarded(t *testing.T) {
	e := newEnv(t, testbed4, []int{0, 1, 2, 3}, 0, roce.DefaultConfig())
	register(t, e) // epoch 1

	// Re-register: epoch 2 replaces the tree wholesale.
	done := false
	var err error
	e.group.RegisterWithPolicy(DefaultRegisterPolicy(), func(regErr error) { err = regErr; done = true })
	e.eng.RunFor(20 * sim.Millisecond)
	if !done || err != nil {
		t.Fatalf("re-registration: done=%v err=%v", done, err)
	}
	acc := e.accels[0]
	if got := acc.Stats.EpochRebuilds; got != 1 {
		t.Fatalf("epoch rebuilds = %d, want 1", got)
	}
	if mft := acc.MFT(e.group.ID); mft.Epoch != 2 {
		t.Fatalf("MFT epoch = %d, want 2", mft.Epoch)
	}

	// A late retransmission from epoch 1 arrives: dropped, tree untouched.
	replayMRP(e, 1)
	if acc.Stats.StaleMRPDropped == 0 {
		t.Fatal("stale-epoch MRP replay was not discarded")
	}
	if mft := acc.MFT(e.group.ID); mft.Epoch != 2 {
		t.Fatalf("stale replay moved MFT epoch to %d", mft.Epoch)
	}

	// A same-epoch replay (lost-confirmation retransmit) is idempotent: no
	// rebuild, registration intact.
	before := acc.Stats.EpochRebuilds
	replayMRP(e, 2)
	if acc.Stats.EpochRebuilds != before {
		t.Fatal("same-epoch replay rebuilt the MFT")
	}
	if !e.group.Registered() {
		t.Fatal("group lost registration after idempotent replay")
	}
}

// TestMRPSkipsUnroutableMember: an MRP naming a member the switch has no
// route to (routes repaired around a dead link) installs the reachable
// members' branches and skips that one, instead of panicking.
func TestMRPSkipsUnroutableMember(t *testing.T) {
	e := newEnv(t, func(eng *sim.Engine) *topo.Network { return topo.FatTree(eng, 4) },
		[]int{0, 3, 7, 12}, 0, roce.DefaultConfig())
	hosts := e.net.Hosts
	e.net.LeafOf(hosts[0]).SetRoutes(hosts[12].IP, nil)
	replayMRP(e, 1)
	accelOf := func(sw *simnet.Switch) *Accel {
		for _, a := range e.accels {
			if a.sw == sw {
				return a
			}
		}
		t.Fatalf("no accelerator on %s", sw.Name)
		return nil
	}
	for _, i := range []int{0, 3, 7} {
		if accelOf(e.net.LeafOf(hosts[i])).MFT(e.group.ID) == nil {
			t.Errorf("leaf of reachable member %d has no MFT", i)
		}
	}
	if accelOf(e.net.LeafOf(hosts[12])).MFT(e.group.ID) != nil {
		t.Error("leaf of the unroutable member got an MFT")
	}
}
