package simnet

import "sync"

// Packets are pooled: every hop of a large fat-tree sweep moves one, and
// allocating per hop makes the GC the bottleneck of large-scale experiments.
//
// Ownership rules (see DESIGN.md §8):
//
//   - Port.Send / Switch.Output / Switch.Forward take ownership. The caller
//     must not touch the packet afterwards — it is either delivered, or
//     released by a drop sink (Port.drop for queue-limit, dead-link and
//     impairment drops; Switch.Drop for crash, no-route and loss-injection
//     drops).
//   - A SwitchHook that returns true from Handle owns the packet and must
//     Release it, drop it through Switch.Drop, or forward it onward
//     (ownership transfers with each path).
//   - Host.Receive releases the packet after Host.Handler returns. A handler
//     that wants to keep any part of it must copy fields out or Clone.
//   - Clone returns an independently owned packet; replication paths clone
//     once per output and release the original.
//
// Double-release and use-after-release are programming errors; Release zeroes
// the struct so they fail loudly (a reused packet shows impossible fields)
// rather than corrupting a neighbour silently.

var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket returns a zeroed packet from the pool. Populate it and hand it to
// a port or device; the terminal sink releases it.
func NewPacket() *Packet {
	p := packetPool.Get().(*Packet)
	p.inPool = false
	return p
}

// Release returns p to the pool. Only the current owner may call it, exactly
// once, and must not touch p afterwards. Releasing a packet that is already
// in the pool panics: by then another owner may have drawn it, and zeroing
// it out from under them is the worst kind of silent corruption.
func (p *Packet) Release() {
	if p.inPool {
		panic("simnet: double release of pooled packet")
	}
	*p = Packet{}
	p.inPool = true
	packetPool.Put(p)
}
