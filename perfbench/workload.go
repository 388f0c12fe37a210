package main

import (
	"fmt"
	"math/rand"

	cepheus "repro"
	"repro/internal/amcast"
	"repro/internal/core"
	"repro/internal/roce"
	"repro/internal/sim"
)

// msgSize is the payload of every broadcast and of every group's post in a
// round.
const msgSize = 1 << 20

// warmupOps is the number of untimed ops each cluster runs after its cold
// first op and before its timed ops.
const warmupOps = 1

// A workload is one cluster shape plus the operation timed on it. Every
// cluster is built through the root cepheus API with default execution
// options, so one goroutine drives the simulation whatever that default is.
type workload struct {
	name string
	k    int // fat-tree arity
	// clusters is how many fresh clusters a run builds, one after
	// another; setup_s and cold_op_ms are medians over them, and each runs
	// an equal share of the timed ops.
	clusters int
	// prepare registers the workload's groups (or builds its overlay) on a
	// fresh cluster and returns the runner of its op. The call is the part
	// of set-up timed as core.register.
	prepare func(c *cepheus.Cluster, rng *rand.Rand) (runner, error)
}

// A runner drives one workload's op on its cluster and checks the output.
type runner interface {
	// begin snapshots the delivery counters the check compares against.
	begin()
	// run drives one op to completion and returns its simulated span.
	run() (sim.Time, error)
	// check verifies that every receiver got exactly the bytes sent, once.
	check() error
}

var workloads = []workload{
	{name: "bcast_k16", k: 16, clusters: 6, prepare: prepareBcastK16},
	{name: "bintree_k8", k: 8, clusters: 10, prepare: prepareBintreeK8},
	{name: "groups_loss_k8", k: 8, clusters: 10, prepare: prepareGroupsLoss},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newCluster builds the workload's fabric: the k-ary fat-tree under
// roce.DefaultConfig with DCQCN on. profile asks for executor
// introspection, which only a partitioned default execution path honours.
func newCluster(w workload, seed int64, profile bool) *cepheus.Cluster {
	tr := roce.DefaultConfig()
	tr.DCQCN = true
	return cepheus.NewFatTree(w.k, cepheus.Options{Seed: seed + 1, Transport: &tr, Profile: profile})
}

// spread picks n distinct hosts of a k-ary fat-tree, as evenly over the k
// pods as n allows (the remainder goes to randomly chosen pods), at random
// positions within each pod, and returns them in random order.
func spread(rng *rand.Rand, k, n int) []int {
	perPod := k * k / 4
	counts := make([]int, k)
	for p := range counts {
		counts[p] = n / k
	}
	for _, p := range rng.Perm(k)[:n%k] {
		counts[p]++
	}
	var hosts []int
	for p, c := range counts {
		for _, h := range rng.Perm(perPod)[:c] {
			hosts = append(hosts, p*perPod+h)
		}
	}
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	return hosts
}

// prepareBcastK16 registers the §V-C paper-scale group: 257 members over
// all 16 pods of the 1024-host fat-tree, member 0 the source.
func prepareBcastK16(c *cepheus.Cluster, rng *rand.Rand) (runner, error) {
	b, err := c.Broadcaster(cepheus.SchemeCepheus, spread(rng, 16, 257), 0)
	if err != nil {
		return nil, err
	}
	g := b.(*amcast.Cepheus).Group
	return &bcastRunner{c: c, b: b, receivers: func(i int) uint64 { return g.Members[i].QP.GoodputBytes }, n: len(g.Members)}, nil
}

// prepareBintreeK8 builds the AMcast binomial-tree overlay over 65 members
// spread across the pods of the 128-host fat-tree. The overlay's relay QPs
// are created lazily by the first broadcast, so a member's delivered bytes
// are summed over every QP on its NIC.
func prepareBintreeK8(c *cepheus.Cluster, rng *rand.Rand) (runner, error) {
	nodes := spread(rng, 8, 65)
	b, err := c.Broadcaster(cepheus.SchemeBinomial, nodes, 0)
	if err != nil {
		return nil, err
	}
	goodput := func(i int) uint64 {
		var sum uint64
		c.RNICs[nodes[i]].EachQP(func(qp *roce.QP) { sum += qp.GoodputBytes })
		return sum
	}
	return &bcastRunner{c: c, b: b, receivers: goodput, n: len(nodes)}, nil
}

// wantDelivered is what member i receives per op: the whole message, once,
// except member 0, the source.
func wantDelivered(i int) uint64 {
	if i == 0 {
		return 0
	}
	return msgSize
}

// bcastRunner runs one 1MB broadcast from member 0 per op.
type bcastRunner struct {
	c         *cepheus.Cluster
	b         amcast.Broadcaster
	n         int
	receivers func(member int) uint64 // delivered payload bytes so far
	before    []uint64
}

func (d *bcastRunner) begin() {
	d.before = d.before[:0]
	for i := 0; i < d.n; i++ {
		d.before = append(d.before, d.receivers(i))
	}
}

func (d *bcastRunner) run() (sim.Time, error) { return d.c.RunBcastErr(d.b, 0, msgSize) }

func (d *bcastRunner) check() error {
	for i := 0; i < d.n; i++ {
		if got, want := d.receivers(i)-d.before[i], wantDelivered(i); got != want {
			return fmt.Errorf("member %d received %d bytes, want %d", i, got, want)
		}
	}
	return nil
}

// Shape of groups_loss_k8.
const (
	lossGroups    = 16
	lossMembers   = 8
	lossRate      = 1e-4
	roundStep     = 10 * sim.Microsecond // SettleUntil granularity
	roundSimLimit = sim.Second           // a round still open after this has stalled
)

// prepareGroupsLoss registers 16 concurrent 8-member groups striped over
// the 128-host fat-tree — group g takes one host in every pod, at pod slot
// g of a per-pod random permutation — with switch data loss and per-group
// attribution on. Member 0, in pod 0, leads each group and is its source,
// as in cepheus-bench's fairness experiment.
func prepareGroupsLoss(c *cepheus.Cluster, rng *rand.Rand) (runner, error) {
	const k = 8
	perPod := k * k / 4
	slots := make([][]int, k)
	for p := range slots {
		slots[p] = rng.Perm(perPod)
	}
	c.SetLossRate(lossRate)
	c.EnableGroupStats(0) // default goodput bucket
	d := &groupsRunner{c: c}
	for g := 0; g < lossGroups; g++ {
		members := make([]int, lossMembers)
		for i := range members {
			members[i] = i*perPod + slots[i][g]
		}
		grp, err := c.NewGroup(members, 0)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		for _, m := range grp.Members[1:] {
			m.QP.OnMessage = func(roce.Message) {}
		}
		d.groups = append(d.groups, grp)
	}
	d.horizon = d.groups[0].Members[0].Host.Engine().Now()
	return d, nil
}

// groupsRunner runs one round per op: every group's source posts 1MB at
// once, and the cluster settles in roundStep slices until all sources have
// completed. Completion lands in per-group slots written only by the
// source's own engine, so the round is race-free under a partitioned
// default too.
type groupsRunner struct {
	c       *cepheus.Cluster
	groups  []*core.Group
	horizon sim.Time

	before   [][]uint64       // per group, per member QP goodput
	gsBefore map[uint32]int64 // per group delivered bytes (GroupStats)
}

func (d *groupsRunner) begin() {
	d.before = d.before[:0]
	for _, g := range d.groups {
		row := make([]uint64, len(g.Members))
		for i, m := range g.Members {
			row[i] = m.QP.GoodputBytes
		}
		d.before = append(d.before, row)
	}
	d.gsBefore = groupDelivered(d.c)
}

func (d *groupsRunner) run() (sim.Time, error) {
	n := len(d.groups)
	start := make([]sim.Time, n)
	end := make([]sim.Time, n)
	for i, g := range d.groups {
		src := g.Members[0]
		eng := src.Host.Engine()
		start[i], end[i] = eng.Now(), -1
		slot := &end[i]
		src.QP.PostSend(msgSize, func() { *slot = eng.Now() })
	}
	limit := d.horizon + roundSimLimit
	for {
		open := 0
		for _, t := range end {
			if t < 0 {
				open++
			}
		}
		if open == 0 {
			break
		}
		if d.horizon >= limit {
			return 0, fmt.Errorf("round stalled: %d of %d sources incomplete after %v", open, n, roundSimLimit)
		}
		d.horizon += roundStep
		d.c.SettleUntil(d.horizon)
	}
	first, last := start[0], end[0]
	for i := range start {
		first, last = min(first, start[i]), max(last, end[i])
	}
	return last - first, nil
}

func (d *groupsRunner) check() error {
	after := groupDelivered(d.c)
	for gi, g := range d.groups {
		for i, m := range g.Members {
			if got, want := m.QP.GoodputBytes-d.before[gi][i], wantDelivered(i); got != want {
				return fmt.Errorf("group %d member %d received %d bytes, want %d", gi, i, got, want)
			}
		}
		id := uint32(g.ID)
		want := int64(msgSize) * int64(len(g.Members)-1)
		if got := after[id] - d.gsBefore[id]; got != want {
			return fmt.Errorf("group %d: GroupStats delivered %d bytes, want %d", gi, got, want)
		}
	}
	return nil
}

// groupDelivered reads GroupStats' delivered bytes per group address; empty
// when attribution is off.
func groupDelivered(c *cepheus.Cluster) map[uint32]int64 {
	out := map[uint32]int64{}
	if c.GroupStats() == nil {
		return out
	}
	for _, r := range c.GroupReports() {
		out[r.Group] = r.DeliveredBytes
	}
	return out
}
