// Package cepheus is the public API of the Cepheus reproduction: it builds
// simulated RoCE clusters (the paper's 4-server testbed or the 1024-server
// fat-tree), creates multicast groups with in-network acceleration, and
// runs one-to-many transfers under Cepheus or any of the paper's AMcast
// baselines (binomial tree, chain, n-unicast, RDMC, increasing-ring,
// long). See README.md for a quickstart and DESIGN.md for the system map.
package cepheus

import (
	"fmt"

	"repro/internal/amcast"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// Scheme names a multicast scheme.
type Scheme string

// The schemes the paper evaluates.
const (
	SchemeCepheus  Scheme = "cepheus"
	SchemeBinomial Scheme = "binomial-tree"
	SchemeChain    Scheme = "chain"
	SchemeRing     Scheme = "increasing-ring"
	SchemeNUnicast Scheme = "n-unicast"
	SchemeRDMC     Scheme = "rdmc"
	SchemeLong     Scheme = "long"
)

// Options tune cluster construction.
type Options struct {
	// Seed drives the deterministic simulation (default 1).
	Seed int64
	// Transport overrides the RoCE configuration (default roce.DefaultConfig).
	Transport *roce.Config
	// Accel overrides the accelerator configuration on every switch.
	Accel *core.AccelConfig
	// LinkRate and PropDelay override the fabric parameters.
	LinkRate  float64
	PropDelay sim.Time

	// Workers selects the execution mode. Every cluster runs on the
	// conservative lookahead coordinator, Cluster.Par, over a partition of
	// the topology into logical processes (DESIGN.md §9). 0 (the default)
	// is the one-LP partition: the whole fabric is one event queue, Net.Eng,
	// and every event is its own barrier, which is the sequential engine.
	// n >= 1 gives each switch its own LP (or each pod, with PodPartition)
	// and runs the LPs in lookahead-bounded windows on n goroutines; Net.Eng
	// is then nil unless the topology has a single switch, whose partition
	// is one LP at any n. The partition is fixed by the topology, so every
	// n >= 1 produces byte-identical simulated results and flight-recorder
	// traces — the knob trades wall-clock speed only. Same-time cross-LP
	// deliveries are ordered by the coordinator's canonical (time, source
	// LP, send order) rule, so traces can differ from the one-LP run's
	// (TestTraceSeqParEquivalence); digests do not.
	//
	// A cluster with more than one LP returns an error from the APIs whose
	// state is inherently cross-member or reads live devices mid-run:
	//   - Broadcaster for every scheme but SchemeCepheus (AMcast overlays);
	//   - RunBcastErr for any broadcaster but SchemeCepheus's;
	//   - NewResilientGroup (the recovery pipeline);
	//   - EnableSeries (the telemetry sampler).
	// Runtime fail-stop fault injection (internal/fault) schedules on
	// Net.Eng and likewise needs one LP; gray impairments work on any.
	Workers int

	// PodPartition coarsens the partition to one LP per topology domain
	// (topo.Network.Domains): on a fat-tree, one LP per pod plus one per core
	// group instead of one per switch. Fewer, fatter LPs mean less cross-LP
	// traffic and per-window overhead at scale; results remain byte-identical
	// across worker counts for a fixed partition choice. No effect at
	// Workers 0, or on topologies without declared domains (falls back to
	// per-switch LPs).
	PodPartition bool

	// Profile enables executor introspection on the partitioned coordinator:
	// per-worker phase timing, per-LP event loads, and the cross-LP traffic
	// matrix, read back through Cluster.ExecProfile. Host-side observation
	// only — simulated results and traces stay byte-identical with the
	// profiler on or off (DESIGN.md §15). No effect on one LP, which runs
	// no windows.
	Profile bool
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Transport == nil {
		c := roce.DefaultConfig()
		o.Transport = &c
	}
	if o.Accel == nil {
		c := core.DefaultAccelConfig()
		o.Accel = &c
	}
	if o.LinkRate == 0 {
		o.LinkRate = topo.DefaultLinkRate
	}
	if o.PropDelay == 0 {
		o.PropDelay = topo.DefaultPropDelay
	}
}

// Cluster is a simulated RoCE datacenter with Cepheus accelerators on every
// switch.
type Cluster struct {
	// Par coordinates the cluster's logical processes; drive it through
	// Run. Net.Eng is non-nil exactly when Par has one LP.
	Par    *sim.Parallel
	Net    *topo.Network
	RNICs  []*roce.RNIC
	Agents []*core.Agent
	Accels []*core.Accel

	// Fab holds the cluster's sharded fabric counters (always wired; the
	// per-LP shards make Metrics a sum over NumLPs cells instead of a walk
	// over every device). Rec is the flight recorder, nil until EnableTrace;
	// Aud the protocol auditor, nil until EnableAudit; Series the telemetry
	// sampler, nil until EnableSeries.
	Fab    *obs.Fabric
	Rec    *obs.Recorder
	Aud    *obs.Auditor
	Series *obs.SeriesSet
	// GS holds the per-group attribution registry, nil until
	// EnableGroupStats (the disabled hot-path cost is one nil check per
	// device, like the flight recorder).
	GS *obs.GroupStats
}

// NewTestbed builds the paper's §IV configuration: n servers under one
// accelerated ToR switch.
func NewTestbed(n int, opts Options) *Cluster {
	opts.fill()
	return wire(topo.TestbedWith(sim.New(opts.Seed), n, opts.LinkRate, opts.PropDelay), opts)
}

// NewFatTree builds the §V-C simulation fabric: a k-ary 3-layer fat-tree
// with k^3/4 hosts (k=16 gives the paper's 1024 servers).
func NewFatTree(k int, opts Options) *Cluster {
	opts.fill()
	return wire(topo.FatTreeWith(sim.New(opts.Seed), k, opts.LinkRate, opts.PropDelay), opts)
}

// NewLeafSpine builds a two-tier Clos with the given leaf/spine counts and
// hosts per leaf (oversubscription = hostsPerLeaf/spines).
func NewLeafSpine(leaves, spines, hostsPerLeaf int, opts Options) *Cluster {
	opts.fill()
	return wire(topo.LeafSpineWith(sim.New(opts.Seed), leaves, spines, hostsPerLeaf, opts.LinkRate, opts.PropDelay), opts)
}

func wire(net *topo.Network, opts Options) *Cluster {
	// Partition before attaching RNICs and accelerators, so every layer
	// built on top picks up its device's LP engine rather than the
	// build-time scratch engine (which Partition disconnects).
	var domains [][]*simnet.Switch // nil: one LP per switch
	switch {
	case opts.Workers == 0:
		domains = [][]*simnet.Switch{net.Switches}
	case opts.PodPartition:
		domains = net.Domains
	}
	c := &Cluster{Net: net, Par: sim.NewParallel(opts.Seed, opts.Workers)}
	net.Partition(c.Par, domains)
	if opts.Profile {
		c.Par.EnableProfile()
	}
	for _, h := range net.Hosts {
		r := roce.NewRNIC(h, *opts.Transport)
		c.RNICs = append(c.RNICs, r)
		c.Agents = append(c.Agents, core.NewAgent(r))
	}
	for _, sw := range net.Switches {
		c.Accels = append(c.Accels, core.Attach(sw, *opts.Accel))
	}
	// Fabric counters are always on: each device increments its own LP's
	// shard (wired after Partition so LP assignments are final).
	c.Fab = obs.NewFabric(c.Par.NumLPs())
	for _, sw := range net.Switches {
		sw.SetFabric(c.Fab.LP(sw.Engine().LP()))
	}
	for _, h := range net.Hosts {
		h.NIC.SetFabric(c.Fab.LP(h.Engine().LP()))
	}
	return c
}

// oneLP reports whether the cluster runs as a single logical process, the
// sequential engine Net.Eng, which the APIs with cross-member state need.
func (c *Cluster) oneLP() bool { return c.Net.Eng != nil }

// EventsRun sums executed events across the cluster's LPs.
func (c *Cluster) EventsRun() uint64 { return c.Par.EventsRun() }

// Now returns the cluster's simulated time: the coordinator's window floor,
// which on one LP is that LP's clock.
func (c *Cluster) Now() sim.Time { return c.Par.Now() }

// Run drives the cluster until done reports true and returns an error if
// the run quiesces or its next event lies past the absolute time limit
// first. done may be nil (run to quiescence or limit). It is checked at
// window barriers, which on one LP means before the first event and after
// every event, so the run stops on the event that satisfied it. The windows
// run on the calling goroutine (Parallel.RunSerial), so done may read state
// that callbacks on any LP write.
func (c *Cluster) Run(limit sim.Time, done func() bool) error {
	if out := c.Par.RunSerial(limit, done); out != sim.Done {
		return fmt.Errorf("cepheus: run ended %v at %v (limit %v) before done", out, c.Now(), limit)
	}
	return nil
}

// Close releases execution resources (the parallel worker pool). Safe to
// call more than once.
func (c *Cluster) Close() { c.Par.Close() }

// Hosts returns the number of hosts in the cluster.
func (c *Cluster) Hosts() int { return len(c.Net.Hosts) }

// LPLabels names each logical process after the switches it executes: the
// first switch's name, with "+n" appended when the LP holds more switches
// (pod-level or one-LP partitions).
func (c *Cluster) LPLabels() []string {
	labels := make([]string, c.Par.NumLPs())
	extra := make([]int, c.Par.NumLPs())
	for _, sw := range c.Net.Switches {
		lp := sw.Engine().LP()
		if lp < 0 || lp >= len(labels) {
			continue
		}
		if labels[lp] == "" {
			labels[lp] = sw.Name
		} else {
			extra[lp]++
		}
	}
	for lp, n := range extra {
		if n > 0 {
			labels[lp] = fmt.Sprintf("%s+%d", labels[lp], n)
		}
	}
	return labels
}

// ExecProfile snapshots the executor-introspection report: per-worker phase
// breakdown, per-LP load, cross-LP traffic, and the derived scaling
// diagnosis. Returns nil unless the cluster was built with Options.Profile
// and has more than one LP. Call between runs, not concurrently with one.
func (c *Cluster) ExecProfile() *obs.ExecReport {
	return obs.BuildExecReport(c.Par.ProfileSnapshot(), c.LPLabels())
}

// ResetExecProfile zeroes the profiler's accumulated counters so a
// subsequent ExecProfile covers only the runs after the reset — sweeps call
// it after warmup. A no-op when profiling is off.
func (c *Cluster) ResetExecProfile() { c.Par.ResetProfile() }

// NewGroup creates and registers a Cepheus multicast group over the given
// host indices (members[leader] hosts the controller). It drives the
// simulation until registration completes and returns an error on
// rejection or timeout.
func (c *Cluster) NewGroup(members []int, leader int) (*core.Group, error) {
	return c.registerGroup(members, leader, core.RegisterPolicy{AttemptTimeout: 50 * sim.Millisecond, MaxAttempts: 1})
}

// registerLimit bounds how long a registration may run. Perpetual timers
// (the audit drain, the telemetry sampler) keep the queue non-empty even
// when registration is wedged, so queue exhaustion alone is not enough.
const registerLimit = 10 * sim.Second

// registerGroup creates a group over the given host indices under a fresh
// McstID from the cluster's fabric, and drives its registration under
// policy to an outcome. The group controller lives on the leader host, so
// its timers and confirmation accounting run on the leader's engine.
func (c *Cluster) registerGroup(members []int, leader int, policy core.RegisterPolicy) (*core.Group, error) {
	if err := c.checkMembers(members, leader); err != nil {
		return nil, err
	}
	var ms []*core.Member
	var ags []*core.Agent
	for _, i := range members {
		ms = append(ms, &core.Member{Host: c.Net.Hosts[i], RNIC: c.RNICs[i], QP: c.RNICs[i].CreateQP()})
		ags = append(ags, c.Agents[i])
	}
	g := core.NewGroup(ms[leader].Host.Engine(), c.Net.AllocMcstID(), ms, leader, ags)
	var regErr error
	done := false
	g.RegisterWithPolicy(policy, func(e error) { regErr, done = e, true })
	if err := c.Run(c.Now()+registerLimit, func() bool { return done }); err != nil {
		return nil, fmt.Errorf("cepheus: registration stalled: %w", err)
	}
	if regErr != nil {
		return nil, regErr
	}
	return g, nil
}

// checkMembers rejects a member list of host indices that no group can be
// built over: an empty list, a leader index outside it, a host outside the
// cluster, or a host listed twice.
func (c *Cluster) checkMembers(members []int, leader int) error {
	if len(members) == 0 {
		return fmt.Errorf("cepheus: empty member list")
	}
	if leader < 0 || leader >= len(members) {
		return fmt.Errorf("cepheus: leader index %d outside the %d-member list", leader, len(members))
	}
	seen := make(map[int]bool, len(members))
	for _, h := range members {
		if h < 0 || h >= c.Hosts() {
			return fmt.Errorf("cepheus: member host %d outside the cluster's %d hosts", h, c.Hosts())
		}
		if seen[h] {
			return fmt.Errorf("cepheus: host %d listed twice", h)
		}
		seen[h] = true
	}
	return nil
}

// Broadcaster builds a broadcaster of the given scheme over the host
// indices in nodes. For SchemeCepheus this creates and registers a group;
// baselines get an MPI-communicator-like overlay. slices parameterizes
// Chain (the paper uses 4) and RDMC's block count; other schemes ignore it.
func (c *Cluster) Broadcaster(scheme Scheme, nodes []int, slices int) (amcast.Broadcaster, error) {
	if scheme == SchemeCepheus {
		g, err := c.NewGroup(nodes, 0)
		if err != nil {
			return nil, err
		}
		return &amcast.Cepheus{Group: g}, nil
	}
	if !c.oneLP() {
		return nil, fmt.Errorf("cepheus: scheme %q requires one LP (Workers 0): overlay completion accounting is cross-member", scheme)
	}
	if err := c.checkMembers(nodes, 0); err != nil {
		return nil, err
	}
	ns := make([]*amcast.Node, len(nodes))
	for i, j := range nodes {
		ns[i] = &amcast.Node{Host: c.Net.Hosts[j], RNIC: c.RNICs[j]}
	}
	comm := amcast.NewComm(ns)
	switch scheme {
	case SchemeBinomial:
		return amcast.Binomial{C: comm}, nil
	case SchemeChain:
		if slices < 1 {
			slices = 4
		}
		return amcast.Chain{C: comm, Slices: slices}, nil
	case SchemeRing:
		return amcast.Chain{C: comm, Slices: 1}, nil
	case SchemeNUnicast:
		return amcast.NUnicast{C: comm}, nil
	case SchemeRDMC:
		if slices < 1 {
			slices = 16
		}
		return amcast.RDMC{C: comm, Blocks: slices}, nil
	case SchemeLong:
		return amcast.Long{C: comm}, nil
	default:
		return nil, fmt.Errorf("cepheus: unknown scheme %q", scheme)
	}
}

// BcastTimeout bounds how long RunBcastErr drives a single broadcast before
// declaring it stuck (in simulated time).
const BcastTimeout = 60 * sim.Second

// RunBcastErr runs one broadcast to completion and returns its JCT. It
// returns an error if the event queue drains or BcastTimeout of simulated
// time elapses before the collective finishes — a lost completion usually
// means a deadlocked transport or a black-holed route, which callers like
// long experiment sweeps want to report rather than die on.
func (c *Cluster) RunBcastErr(b amcast.Broadcaster, root, size int) (sim.Time, error) {
	if !c.oneLP() {
		return c.runBcastParallel(b, root, size)
	}
	start := c.Now()
	var end sim.Time = -1
	b.Bcast(root, size, func() { end = c.Now() })
	if err := c.Run(start+BcastTimeout, func() bool { return end >= 0 }); err != nil {
		return 0, fmt.Errorf("cepheus: %s bcast of %dB stalled: %w", b.Name(), size, err)
	}
	return end - start, nil
}

// runBcastParallel drives one Cepheus broadcast across a multi-LP
// cluster. Completion is tracked through BcastRecord's per-member time
// slots — each written only by its owning LP — and detected by the window
// coordinator, whose barrier provides the happens-before edge. JCT is
// measured from the source LP's clock at post to the latest member delivery,
// exactly the one-LP definition.
func (c *Cluster) runBcastParallel(b amcast.Broadcaster, root, size int) (sim.Time, error) {
	cb, ok := b.(*amcast.Cepheus)
	if !ok {
		return 0, fmt.Errorf("cepheus: a multi-LP run supports only the cepheus scheme, not %s", b.Name())
	}
	times := make([]sim.Time, len(cb.Group.Members))
	src := cb.BcastRecord(root, size, times)
	start := times[src]
	pred := func() bool {
		for _, t := range times {
			if t < 0 {
				return false
			}
		}
		return true
	}
	out := c.Par.Run(start+BcastTimeout, pred)
	if out != sim.Done {
		return 0, fmt.Errorf("cepheus: %s bcast of %dB stalled in parallel run (%v)", b.Name(), size, out)
	}
	end := start
	for _, t := range times {
		if t > end {
			end = t
		}
	}
	return end - start, nil
}

// RunBcast is RunBcastErr for callers that treat a stuck broadcast as a
// programming error: it panics instead of returning one.
func (c *Cluster) RunBcast(b amcast.Broadcaster, root, size int) sim.Time {
	jct, err := c.RunBcastErr(b, root, size)
	if err != nil {
		panic(err)
	}
	return jct
}

// SetLossRate injects random data-packet loss on every switch (Fig 13).
func (c *Cluster) SetLossRate(rate float64) {
	for _, sw := range c.Net.Switches {
		sw.LossRate = rate
	}
}

// TotalDrops sums loss-injected discards across switches.
func (c *Cluster) TotalDrops() uint64 {
	var n uint64
	for _, sw := range c.Net.Switches {
		n += sw.DataDrops
	}
	return n
}

// Host returns host i's address (useful when crafting custom traffic).
func (c *Cluster) Host(i int) *simnet.Host { return c.Net.Hosts[i] }
