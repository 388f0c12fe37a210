package cepheus

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/amcast"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// The engine's contract is bit-for-bit determinism: the same seed must yield
// the same schedule, and scheduler refactors must not perturb simulated
// results. Two guards enforce it: same-seed runs must be identical in every
// observable (including EventsRun), and the hardcoded golden digests below —
// captured before the allocation-free scheduler rewrite — must keep
// reproducing, proving the rewrite changed no simulated outcome.

// simDigest summarizes one seeded workload for comparison.
type simDigest struct {
	jct     sim.Time
	events  uint64
	metrics string
	retrans uint64
}

func (d simDigest) String() string {
	return "jct=" + sim.Time(d.jct).String() + " metrics=" + d.metrics
}

// testbedWorkload is a 4-node testbed broadcasting 256KB losslessly — the
// clean path: registration, replication, aggregation, no recovery machinery.
func testbedWorkload(t *testing.T) simDigest {
	t.Helper()
	c := NewTestbed(4, Options{})
	b, err := c.Broadcaster(SchemeCepheus, []int{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	jct, err := c.RunBcastErr(b, 0, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	return simDigest{jct: jct, events: c.EventsRun(), metrics: c.Metrics().String()}
}

// fatTreeLossWorkload is a 16-host fat-tree under DCQCN with 1e-3 injected
// loss on a 1MB broadcast — the dirty path: every RNG consumer (ECN marking,
// loss injection) and the go-back-N recovery machinery in one digest.
func fatTreeLossWorkload(t *testing.T) simDigest {
	t.Helper()
	d, _, err := fatTreeLossRun(fatTreeLossCluster())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fatTreeLossCluster builds fatTreeLossWorkload's fabric.
func fatTreeLossCluster() *Cluster {
	tr := roce.DefaultConfig()
	tr.DCQCN = true
	return NewFatTree(4, Options{Transport: &tr})
}

// fatTreeLossRun registers fatTreeLossWorkload's group on c, runs the lossy
// broadcast, and returns the digest and the group's McstID.
func fatTreeLossRun(c *Cluster) (simDigest, simnet.Addr, error) {
	g, err := c.NewGroup([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	if err != nil {
		return simDigest{}, 0, err
	}
	c.SetLossRate(1e-3)
	jct, err := c.RunBcastErr(&amcast.Cepheus{Group: g}, 0, 1<<20)
	if err != nil {
		return simDigest{}, 0, err
	}
	d := digestOf(c, jct)
	d.events = c.EventsRun()
	return d, g.ID, nil
}

// TestDeterminismSameSeedTwice runs both workloads twice and demands every
// observable match, event counts included.
func TestDeterminismSameSeedTwice(t *testing.T) {
	t.Parallel()
	for name, run := range map[string]func(*testing.T) simDigest{
		"testbed": testbedWorkload,
		"fattree": fatTreeLossWorkload,
	} {
		a, b := run(t), run(t)
		if a != b {
			t.Errorf("%s: same-seed runs diverged:\n  first:  %+v\n  second: %+v", name, a, b)
		}
	}
}

// equivWorkload is the workload of the pinned-digest and repeatability
// tests: one lossless 256KB Cepheus broadcast from members[0] over a k-ary
// fat-tree built with opts.
type equivWorkload struct {
	k       int
	members []int
	opts    Options
}

// k8Workload spreads 16 members 8 hosts apart over the 128-host (k=8)
// fat-tree.
func k8Workload(seed int64) equivWorkload {
	members := make([]int, 16)
	for i := range members {
		members[i] = i * 8
	}
	return equivWorkload{k: 8, members: members, opts: Options{Seed: seed}}
}

// group registers the workload's group on c.
func (w equivWorkload) group(t *testing.T, c *Cluster) amcast.Broadcaster {
	t.Helper()
	b, err := c.Broadcaster(SchemeCepheus, w.members, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// digest runs the broadcast and returns the digest plus the run's event
// count. It settles the fabric to idle before posting and again before
// reading counters.
func (w equivWorkload) digest(t *testing.T) (simDigest, uint64) {
	t.Helper()
	c := NewFatTree(w.k, w.opts)
	b := w.group(t, c)
	c.SettleUntil(c.Now() + 10*sim.Millisecond) // drain registration residue
	jct, err := c.RunBcastErr(b, w.members[0], 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(c.Now() + sim.Millisecond) // let trailing ACK/feedback traffic land
	return digestOf(c, jct), c.EventsRun()
}

// digestOf summarizes c's run of a broadcast that took jct.
func digestOf(c *Cluster, jct sim.Time) simDigest {
	d := simDigest{jct: jct, metrics: c.Metrics().String()}
	for _, r := range c.RNICs {
		d.retrans += r.Stats.Retransmits
	}
	return d
}

// traceHorizon is where traced runs cut their trace.
const traceHorizon = 60 * sim.Millisecond

// traced runs the broadcast with a capacity-event flight recorder on and
// settles to traceHorizon. setup, if set, runs on the cluster before the
// group registers; inspect, if set, gets the cluster and its trace cut at
// traceHorizon before the cluster closes. It returns the digest at the
// horizon and the trace in canonical JSONL.
func (w equivWorkload) traced(t *testing.T, capacity int, setup func(*Cluster), inspect func(*Cluster, []obs.Event)) (simDigest, []byte) {
	t.Helper()
	c := NewFatTree(w.k, w.opts)
	rec := c.EnableTrace(capacity)
	if setup != nil {
		setup(c)
	}
	jct, err := c.RunBcastErr(w.group(t, c), w.members[0], 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(traceHorizon)
	evs := rec.EventsUntil(traceHorizon)
	if len(evs) == 0 {
		t.Fatal("trace captured nothing")
	}
	if rec.Lost() != 0 {
		t.Fatalf("flight recorder overflowed (lost %d); grow capacity so the comparison sees complete histories", rec.Lost())
	}
	if inspect != nil {
		inspect(c, evs)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return digestOf(c, jct), buf.Bytes()
}

// TestPinnedK8Digests pins k8Workload's digest and event count at seeds
// 1-3. The values were captured from the one-engine run before multi-LP
// execution was deleted, when they were the reference every worker count
// had to match.
func TestPinnedK8Digests(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2, 3} {
		d, ev := k8Workload(seed).digest(t)
		if d.jct != 29068 || d.metrics != "clean" || d.retrans != 0 || ev != 26136 {
			t.Errorf("seed %d: digest drifted: got %v retrans=%d events=%d, want jct=29068ns metrics=clean retrans=0 events=26136",
				seed, d, d.retrans, ev)
		}
	}
}

// TestGoldenDigests pins the simulated outcomes to values captured before the
// allocation-free scheduler rewrite. JCT, drop counters, and retransmission
// counts must reproduce exactly; EventsRun is not pinned across refactors
// (cancelled timers no longer execute as no-op events).
func TestGoldenDigests(t *testing.T) {
	t.Parallel()
	if a := testbedWorkload(t); a.jct != 26316 || a.metrics != "clean" {
		t.Errorf("testbed digest drifted: got %v, want jct=26316ns metrics=clean", a)
	}
	checkFatTreeGolden(t, "fat-tree", fatTreeLossWorkload(t))
}

// checkFatTreeGolden pins fatTreeLossWorkload's digest.
func checkFatTreeGolden(t *testing.T, name string, b simDigest) {
	t.Helper()
	if b.jct != 3449620 || b.metrics != "dataDrops=46" || b.retrans != 4017 {
		t.Errorf("%s digest drifted: got %v retrans=%d, want jct=3.450ms metrics=dataDrops=46 retrans=4017",
			name, b, b.retrans)
	}
}

// TestConcurrentClusters builds two identical clusters on two goroutines
// and runs fatTreeLossWorkload on both at once. Each fabric allocates its
// own group IDs, so both must register the same McstID — the first one —
// and reproduce the golden digest.
func TestConcurrentClusters(t *testing.T) {
	t.Parallel()
	const n = 2
	var built, done sync.WaitGroup
	built.Add(n)
	done.Add(n)
	digests := make([]simDigest, n)
	ids := make([]simnet.Addr, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			c := fatTreeLossCluster()
			built.Done()
			built.Wait() // both fabrics exist before either registers a group
			digests[i], ids[i], errs[i] = fatTreeLossRun(c)
		}(i)
	}
	done.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("cluster %d: %v", i, errs[i])
		}
		if ids[i] != simnet.MulticastBase+1 {
			t.Errorf("cluster %d: group ID %#x, want %#x", i, uint32(ids[i]), uint32(simnet.MulticastBase+1))
		}
		checkFatTreeGolden(t, fmt.Sprintf("cluster %d", i), digests[i])
	}
}

// backToBackGroupsRound registers 16 eight-member groups back to back on the
// k=8 fat-tree (group g takes one host per pod), then runs one loss-free
// round in which every group's source posts 256KB at once, and returns the
// round's digest and the cluster's event count.
func backToBackGroupsRound(t *testing.T) (simDigest, uint64) {
	t.Helper()
	const k, groups = 8, 16
	perPod := k * k / 4
	c := NewFatTree(k, Options{Seed: 5})
	var gs []*core.Group
	for g := 0; g < groups; g++ {
		members := make([]int, k)
		for i := range members {
			members[i] = i*perPod + (g+3*i)%perPod
		}
		grp, err := c.NewGroup(members, 0)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		gs = append(gs, grp)
	}
	start := c.Now()
	end := make([]sim.Time, groups)
	open := groups
	for i, g := range gs {
		slot := &end[i]
		g.Members[0].QP.PostSend(256<<10, func() { *slot = c.Now(); open-- })
	}
	if err := c.Run(start+sim.Second, func() bool { return open == 0 }); err != nil {
		t.Fatal(err)
	}
	last := start
	for _, at := range end {
		last = max(last, at)
	}
	c.SettleUntil(c.Now() + sim.Millisecond)
	return digestOf(c, last-start), c.EventsRun()
}

// TestPinnedBackToBackGroups pins backToBackGroupsRound's digest and event
// count, captured from the one-engine run before multi-LP execution was
// deleted.
func TestPinnedBackToBackGroups(t *testing.T) {
	t.Parallel()
	d, ev := backToBackGroupsRound(t)
	if d.jct != 31704 || d.metrics != "clean" || d.retrans != 0 || ev != 252048 {
		t.Errorf("digest drifted: got %v retrans=%d events=%d, want jct=31.70us metrics=clean retrans=0 events=252048",
			d, d.retrans, ev)
	}
}
