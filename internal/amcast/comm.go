// Package amcast implements the application-layer multicast baselines the
// paper compares against (§II-C, §V-A) — n-unicasts, Binomial Tree, Chain
// (sliced pipeline), an RDMC-style binomial pipeline, increasing-ring and
// the "long" scatter+allgather algorithm — plus a uniform Broadcaster
// front-end for Cepheus itself, so applications and benches can swap
// schemes freely. All baselines run over ordinary RoCE RC unicast QPs, the
// way OpenMPI/NCCL/Spark overlays do.
package amcast

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/roce"
	"repro/internal/simnet"
)

// Node is one participant: a host with its RoCE engine.
type Node struct {
	Host *simnet.Host
	RNIC *roce.RNIC
}

// Broadcaster is a one-to-many collective over a fixed node set. Bcast
// delivers size bytes from the root to every other node; done fires when
// the last node holds the complete message (MPI-Bcast JCT semantics).
type Broadcaster interface {
	Name() string
	Bcast(root, size int, done func())
}

// Comm is an MPI-communicator-like object: a fixed node set with lazily
// created pairwise RC connections, reused across operations (as real MPI
// reuses its QPs). One collective runs at a time.
type Comm struct {
	Nodes []*Node

	sendQP map[[2]int]*roce.QP // [from][to] requester-side QP

	// current operation's receive dispatcher: (dst, src, message)
	onRecv func(dst, src int, m roce.Message)
}

// NewComm builds a communicator over the nodes.
func NewComm(nodes []*Node) *Comm {
	return &Comm{Nodes: nodes, sendQP: make(map[[2]int]*roce.QP)}
}

// qp returns (creating if needed) the sender-side QP from node i to node j.
func (c *Comm) qp(i, j int) *roce.QP {
	if i == j {
		panic("amcast: self-connection requested")
	}
	key := [2]int{i, j}
	if q, ok := c.sendQP[key]; ok {
		return q
	}
	sq := c.Nodes[i].RNIC.CreateQP()
	rq := c.Nodes[j].RNIC.CreateQP()
	sq.Connect(c.Nodes[j].Host.IP, rq.QPN)
	rq.Connect(c.Nodes[i].Host.IP, sq.QPN)
	dst, src := j, i
	rq.OnMessage = func(m roce.Message) {
		if c.onRecv != nil {
			c.onRecv(dst, src, m)
		}
	}
	c.sendQP[key] = sq
	return sq
}

// send posts a message from node i to node j under the current operation.
func (c *Comm) send(i, j, size int) { c.qp(i, j).PostSend(size, nil) }

// begin installs the operation's receive dispatcher.
func (c *Comm) begin(onRecv func(dst, src int, m roce.Message)) {
	if c.onRecv != nil {
		panic("amcast: collective already in progress on this communicator")
	}
	c.onRecv = onRecv
}

func (c *Comm) end() { c.onRecv = nil }

// ---- n-unicasts ----

// NUnicast is the straightforward AMcast: the sender transmits identical
// data independently to every receiver, saturating its outbound link
// (Fig 1d's bandwidth bottleneck).
type NUnicast struct{ C *Comm }

func (NUnicast) Name() string { return "n-unicast" }

func (b NUnicast) Bcast(root, size int, done func()) {
	n := len(b.C.Nodes)
	remaining := n - 1
	if remaining == 0 {
		done()
		return
	}
	b.C.begin(func(dst, src int, m roce.Message) {
		remaining--
		if remaining == 0 {
			b.C.end()
			done()
		}
	})
	for j := 0; j < n; j++ {
		if j != root {
			b.C.send(root, j, size)
		}
	}
}

// ---- Binomial Tree ----

// Binomial is the latency-oriented overlay (Fig 1b): O(log2 N) relay
// rounds, each node forwarding the message to its children after receiving
// it (farthest subtree first, as MPI orders it). Segment > 0 additionally
// pipelines large messages through the tree in segments, as OpenMPI's
// tuned segmented binomial does; the default relays whole messages, which
// is the configuration the paper's Fig 9/12 BT numbers correspond to.
type Binomial struct {
	C *Comm
	// Segment is the optional pipeline segment size in bytes; 0 relays
	// whole messages.
	Segment int
}

func (Binomial) Name() string { return "binomial-tree" }

func (b Binomial) Bcast(root, size int, done func()) {
	n := len(b.C.Nodes)
	if n == 1 {
		done()
		return
	}
	seg := b.Segment
	if seg <= 0 || seg > size {
		seg = size
	}
	nseg := (size + seg - 1) / seg
	segSize := func(s int) int {
		if s == nseg-1 {
			return size - (nseg-1)*seg
		}
		return seg
	}
	abs := func(rank int) int { return (rank + root) % n }
	// children of rank: rank+2^k for each k with 2^k > rank (rank 0 covers
	// all powers), farthest subtree first — the standard MPI ordering.
	children := func(rank int) []int {
		start := uint(0)
		for rank>>start != 0 {
			start++
		}
		var out []int
		for k := start; ; k++ {
			child := rank + 1<<k
			if child >= n {
				break
			}
			out = append(out, child)
		}
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	forward := func(rank, s int) {
		for _, c := range children(rank) {
			b.C.send(abs(rank), abs(c), segSize(s))
		}
	}
	got := make([]int, n) // segments received per rank (in order per QP)
	remaining := (n - 1) * nseg
	b.C.begin(func(dst, src int, m roce.Message) {
		rank := (dst - root + n) % n
		s := got[rank]
		got[rank]++
		remaining--
		if remaining == 0 {
			b.C.end()
			done()
			return
		}
		forward(rank, s)
	})
	for s := 0; s < nseg; s++ {
		forward(0, s)
	}
}

// ---- Chain ----

// Chain is the throughput-oriented overlay (Fig 1c): nodes form a logical
// chain and relay slices as they arrive. The paper fixes Slices=4 (equal to
// the host count) as the practical configuration, since every intermediate
// host pays end-host stack cost per slice.
type Chain struct {
	C      *Comm
	Slices int
}

func (c Chain) Name() string {
	if c.Slices <= 1 {
		return "increasing-ring"
	}
	return fmt.Sprintf("chain-%d", c.Slices)
}

func (c Chain) Bcast(root, size int, done func()) {
	n := len(c.C.Nodes)
	if n == 1 {
		done()
		return
	}
	slices := c.Slices
	if slices < 1 {
		slices = 1
	}
	if slices > size {
		slices = size
	}
	sliceSize := func(s int) int {
		base := size / slices
		if s < size%slices {
			base++
		}
		return base
	}
	next := func(i int) int { return (i + 1) % n }
	last := (root - 1 + n) % n
	remaining := (n - 1) * slices
	c.C.begin(func(dst, src int, m roce.Message) {
		remaining--
		if remaining == 0 {
			c.C.end()
			done()
			return
		}
		if dst != last {
			c.C.send(dst, next(dst), m.Size)
		}
	})
	for s := 0; s < slices; s++ {
		c.C.send(root, next(root), sliceSize(s))
	}
}

// ---- Cepheus front-end ----

// Cepheus adapts a registered core.Group to the Broadcaster interface: the
// source posts once; the fabric replicates; done fires when every member
// has delivered the message (which, by feedback aggregation, coincides with
// the sender's completion up to one stack delay).
//
// When successive Bcast calls use different roots — HPL's panel broadcast
// rotates the root every iteration — the broadcaster performs the §III-E
// PSN Synchronization between the old and new source before posting, so
// the group keeps a single MFT and no QP is re-established.
type Cepheus struct {
	Group *core.Group
	// SrcIndex maps a Bcast root to the group member index; identity when
	// nil.
	SrcIndex func(root int) int

	lastSrc int
}

func (*Cepheus) Name() string { return "cepheus" }

func (c *Cepheus) Bcast(root, size int, done func()) {
	remaining := len(c.Group.Members) - 1
	if remaining == 0 {
		done()
		return
	}
	idx := root
	if c.SrcIndex != nil {
		idx = c.SrcIndex(root)
	}
	if idx != c.lastSrc {
		c.Group.SwitchSource(c.lastSrc, idx)
		c.lastSrc = idx
	}
	members := c.Group.Members
	for i, m := range members {
		if i == idx {
			continue
		}
		m.QP.OnMessage = func(roce.Message) {
			remaining--
			if remaining == 0 {
				done()
			}
		}
	}
	members[idx].QP.PostSend(size, nil)
}
