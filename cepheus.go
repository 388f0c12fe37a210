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

	// Profile once enabled the multi-LP executor's profiler. Every cluster
	// now runs on one engine, which has nothing to profile.
	//
	// Deprecated: ignored; Cluster.ExecProfile always returns nil.
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
	// Net is the fabric; Net.Eng is the one engine that drives every
	// device. Drive it through Run.
	Net    *topo.Network
	RNICs  []*roce.RNIC
	Agents []*core.Agent
	Accels []*core.Accel

	// Fab holds the fabric's egress queue-depth histogram (always wired;
	// the drop counters live on the devices, and Metrics sums them). Rec
	// is the flight recorder, nil until EnableTrace; Aud the protocol
	// auditor, nil until EnableAudit; Series the telemetry sampler, nil
	// until EnableSeries.
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
	c := &Cluster{Net: net, Fab: obs.NewFabric()}
	for _, h := range net.Hosts {
		r := roce.NewRNIC(h, *opts.Transport)
		c.RNICs = append(c.RNICs, r)
		c.Agents = append(c.Agents, core.NewAgent(r))
		h.NIC.SetFabric(c.Fab)
	}
	for _, sw := range net.Switches {
		c.Accels = append(c.Accels, core.Attach(sw, *opts.Accel))
		sw.SetFabric(c.Fab)
	}
	return c
}

// EventsRun reports how many events the cluster has executed.
func (c *Cluster) EventsRun() uint64 { return c.Net.Eng.EventsRun() }

// Now returns the cluster's simulated time.
func (c *Cluster) Now() sim.Time { return c.Net.Eng.Now() }

// Run drives the cluster until done reports true and returns an error if
// the run quiesces or its next event lies past the absolute time limit
// first. done may be nil (run to quiescence or limit). It is checked before
// the first event and after every event, so the run stops on the event that
// satisfied it.
func (c *Cluster) Run(limit sim.Time, done func() bool) error {
	if out := c.Net.Eng.Run(limit, done); out != sim.Done {
		return fmt.Errorf("cepheus: run ended %v at %v (limit %v) before done", out, c.Now(), limit)
	}
	return nil
}

// Close releases nothing: a cluster holds only memory.
//
// Deprecated: kept so existing callers compile.
func (c *Cluster) Close() {}

// Hosts returns the number of hosts in the cluster.
func (c *Cluster) Hosts() int { return len(c.Net.Hosts) }

// ExecProfile returns nil: one engine has no executor windows to profile.
//
// Deprecated: kept so existing callers compile.
func (c *Cluster) ExecProfile() *obs.ExecReport { return nil }

// ResetExecProfile does nothing.
//
// Deprecated: kept so existing callers compile.
func (c *Cluster) ResetExecProfile() {}

// NewGroup creates and registers a Cepheus multicast group over the given
// host indices (members[leader] hosts the controller). It drives the
// simulation until registration completes and returns an error on
// rejection or timeout.
func (c *Cluster) NewGroup(members []int, leader int) (*core.Group, error) {
	return c.registerGroup(members, leader, core.RegisterPolicy{AttemptTimeout: 50 * sim.Millisecond, MaxAttempts: 1})
}

// registerLimit bounds how long a registration may run. A perpetual timer
// (the telemetry sampler) keeps the queue non-empty even when registration
// is wedged, so queue exhaustion alone is not enough.
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

// Comm builds an MPI-communicator-like overlay over the host indices in
// nodes (rank i is host nodes[i]), on which the AMcast baselines and the
// software reductions run. It rejects the member lists NewGroup rejects.
func (c *Cluster) Comm(nodes []int) (*amcast.Comm, error) {
	if err := c.checkMembers(nodes, 0); err != nil {
		return nil, err
	}
	ns := make([]*amcast.Node, len(nodes))
	for i, j := range nodes {
		ns[i] = &amcast.Node{Host: c.Net.Hosts[j], RNIC: c.RNICs[j]}
	}
	return amcast.NewComm(ns), nil
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
	comm, err := c.Comm(nodes)
	if err != nil {
		return nil, err
	}
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
	start := c.Now()
	var end sim.Time = -1
	b.Bcast(root, size, func() { end = c.Now() })
	if err := c.Run(start+BcastTimeout, func() bool { return end >= 0 }); err != nil {
		return 0, fmt.Errorf("cepheus: %s bcast of %dB stalled: %w", b.Name(), size, err)
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
