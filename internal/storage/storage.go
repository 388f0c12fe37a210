// Package storage models the paper's distributed-storage replication
// application (§V-B1): a client writes each IO to R storage servers
// (three-replica writing) and completes when every server's storage stack
// has acknowledged. Three write paths are supported — the 1-unicast
// baseline reference, the default 3-unicasts approach, and Cepheus
// multicast WRITE — reproducing Table I (replication IOPS) and Fig 10
// (single IO latency).
package storage

import (
	"fmt"

	cepheus "repro"
	"repro/internal/core"
	"repro/internal/roce"
	"repro/internal/sim"
)

// Mode selects the replication write path.
type Mode int

const (
	// Unicast1 writes to a single server: the ideal one-to-one reference.
	Unicast1 Mode = iota
	// UnicastN writes independently to every replica over separate RC
	// connections (the paper's default "3-unicasts").
	UnicastN
	// Cepheus writes once into the multicast group; the fabric replicates.
	CepheusWrite
)

func (m Mode) String() string {
	switch m {
	case Unicast1:
		return "1-unicast"
	case UnicastN:
		return "n-unicasts"
	case CepheusWrite:
		return "cepheus"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config calibrates the storage protocol stack (DESIGN.md §5). The client
// stack cost plus the RNIC post overhead set the per-IO CPU floor that
// caps 8KB writing at ~1.19M IOPS for 1-unicast, as in Table I.
type Config struct {
	Replicas      int
	ClientStackNs sim.Time // client storage-stack cost per IO (serialized)
	ServerStackNs sim.Time // server storage-stack cost per IO (serialized)
	Transport     roce.Config
}

// DefaultConfig returns the calibrated setup: 3 replicas, a polling-mode
// storage stack (850ns client / 600ns server), and a lean transport post
// path (340ns per post, free CQ polling). With the client stack and one
// post serialized per IO, the 1-unicast 8KB path floors at ~850ns/IO —
// Table I's 1.19M IOPS.
func DefaultConfig() Config {
	tr := roce.DefaultConfig()
	tr.PostOverhead = 340 * sim.Nanosecond
	tr.DeliverOverhead = 0
	return Config{
		Replicas:      3,
		ClientStackNs: 850 * sim.Nanosecond,
		ServerStackNs: 600 * sim.Nanosecond,
		Transport:     tr,
	}
}

// stack is a serialized processing resource (one storage-protocol thread).
type stack struct {
	eng  *sim.Engine
	next sim.Time
}

func (s *stack) do(cost sim.Time, fn func()) {
	start := s.eng.Now()
	if s.next > start {
		start = s.next
	}
	s.next = start + cost
	s.eng.Schedule(s.next, fn)
}

// Cluster is a storage testbed: one client plus Replicas servers on a ToR.
type Cluster struct {
	Cfg  Config
	Mode Mode

	tb *cepheus.Cluster

	clientStack  stack
	serverStacks []stack

	// write path
	writeQPs []*roce.QP // client->server, one per replica (unicast modes)
	group    *core.Group
	memberQP *roce.QP // client's group QP (cepheus mode)

	// reply path: server->client unicast QPs and per-server delivery
	// counters; in-order RC delivery makes reply j acknowledge IO j.
	replyQPs []*roce.QP
	acked    []uint64

	issued    uint64
	completed uint64
	onDone    map[uint64]func()
}

// registerTimeout bounds the multicast group's registration.
const registerTimeout = 10 * sim.Millisecond

// NewCluster wires the testbed for the given mode. Cepheus mode registers
// a multicast group over client+servers, each member carrying its write
// MR, and runs the registration to completion before returning; a failed
// or stalled registration is an error.
func NewCluster(mode Mode, cfg Config) (*Cluster, error) {
	n := cfg.Replicas + 1
	tb := cepheus.NewTestbed(n, cepheus.Options{Transport: &cfg.Transport})
	hosts, rnics := tb.Net.Hosts, tb.RNICs
	eng := tb.Net.Eng
	c := &Cluster{Cfg: cfg, Mode: mode, tb: tb, onDone: make(map[uint64]func())}
	c.clientStack = stack{eng: eng}
	c.serverStacks = make([]stack, cfg.Replicas)
	c.acked = make([]uint64, cfg.Replicas)
	nrep := replicasFor(mode, cfg.Replicas)

	// Reply QPs: server s -> client.
	for s := 0; s < cfg.Replicas; s++ {
		c.serverStacks[s] = stack{eng: eng}
		sq := rnics[s+1].CreateQP()
		rq := rnics[0].CreateQP()
		sq.Connect(hosts[0].IP, rq.QPN)
		rq.Connect(hosts[s+1].IP, sq.QPN)
		s := s
		rq.OnMessage = func(m roce.Message) { c.onReply(s) }
		c.replyQPs = append(c.replyQPs, sq)
	}

	serverRecv := func(s int) func(m roce.Message) {
		return func(m roce.Message) {
			// Server storage stack processes the write, then acknowledges.
			c.serverStacks[s].do(cfg.ServerStackNs, func() {
				c.replyQPs[s].PostSend(64, nil)
			})
		}
	}

	switch mode {
	case Unicast1, UnicastN:
		for s := 0; s < nrep; s++ {
			wq := rnics[0].CreateQP()
			rq := rnics[s+1].CreateQP()
			wq.Connect(hosts[s+1].IP, rq.QPN)
			rq.Connect(hosts[0].IP, wq.QPN)
			rq.OnMessage = serverRecv(s)
			c.writeQPs = append(c.writeQPs, wq)
		}
	case CepheusWrite:
		var members []*core.Member
		for i := 0; i < n; i++ {
			members = append(members, &core.Member{
				Host: hosts[i], RNIC: rnics[i], QP: rnics[i].CreateQP(),
				WVA: uint64(0x100000 * (i + 1)), WRKey: uint32(i + 1),
			})
		}
		g := core.NewGroup(eng, tb.Net.AllocMcstID(), members, 0, tb.Agents)
		var regErr error
		done := false
		g.Register(registerTimeout, func(err error) { regErr, done = err, true })
		if err := tb.Run(tb.Now()+registerTimeout, func() bool { return done }); err != nil {
			return nil, fmt.Errorf("storage: registration stalled: %w", err)
		}
		if regErr != nil {
			return nil, fmt.Errorf("storage: registration failed: %w", regErr)
		}
		c.group = g
		c.memberQP = members[0].QP
		for s := 0; s < cfg.Replicas; s++ {
			members[s+1].QP.OnMessage = serverRecv(s)
		}
	}
	return c, nil
}

func replicasFor(mode Mode, replicas int) int {
	if mode == Unicast1 {
		return 1
	}
	return replicas
}

// SubmitWrite issues one IO of size bytes; done (may be nil) fires when all
// replicas acknowledged through their storage stacks.
func (c *Cluster) SubmitWrite(size int, done func()) {
	id := c.issued
	c.issued++
	if done != nil {
		c.onDone[id] = done
	}
	c.clientStack.do(c.Cfg.ClientStackNs, func() {
		switch c.Mode {
		case Unicast1, UnicastN:
			for s, wq := range c.writeQPs {
				wq.PostWrite(size, uint64(0x100000*(s+2)), uint32(s+2), nil)
			}
		case CepheusWrite:
			c.memberQP.PostWrite(size, 0xC0DE, 1, nil)
		}
	})
}

func (c *Cluster) onReply(server int) {
	c.acked[server]++
	// IO i is complete once every participating server has acknowledged
	// at least i+1 IOs (in-order RC delivery pairs replies with IOs).
	for {
		next := c.completed
		if next >= c.issued {
			return
		}
		ok := true
		for s := 0; s < replicasFor(c.Mode, c.Cfg.Replicas); s++ {
			if c.acked[s] < next+1 {
				ok = false
				break
			}
		}
		if !ok {
			return
		}
		c.completed++
		if cb, found := c.onDone[next]; found {
			delete(c.onDone, next)
			cb()
		}
	}
}

// Completed reports how many IOs have fully committed.
func (c *Cluster) Completed() uint64 { return c.completed }

// RunIOPS drives the cluster with queueDepth outstanding IOs of size bytes
// for the duration and returns the measured IOPS.
func (c *Cluster) RunIOPS(size, queueDepth int, duration sim.Time) float64 {
	stopAt := c.tb.Now() + duration
	startCompleted := c.completed
	var pump func()
	pump = func() {
		if c.tb.Now() >= stopAt {
			return
		}
		c.SubmitWrite(size, pump)
	}
	for i := 0; i < queueDepth; i++ {
		pump()
	}
	c.tb.SettleUntil(stopAt)
	return float64(c.completed-startCompleted) / duration.Seconds()
}

// MeasureLatency issues count sequential IOs (queue depth 1) and returns
// the mean end-to-end latency, or an error if an IO does not commit within
// a second.
func (c *Cluster) MeasureLatency(size, count int) (sim.Time, error) {
	var total sim.Time
	for i := 0; i < count; i++ {
		start := c.tb.Now()
		done := false
		c.SubmitWrite(size, func() { done = true })
		if err := c.tb.Run(start+sim.Second, func() bool { return done }); err != nil {
			return 0, fmt.Errorf("storage: %s IO %d of %dB did not commit: %w", c.Mode, i, size, err)
		}
		total += c.tb.Now() - start
	}
	return total / sim.Time(count), nil
}
