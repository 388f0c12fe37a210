package simnet

import "repro/internal/sim"

// Host is a server with a single NIC port. The transport layer (internal/
// roce) installs itself as the Handler; PFC frames are absorbed here, the
// way a NIC's MAC handles them below the transport.
type Host struct {
	Name string
	IP   Addr
	NIC  *Port

	// Handler receives every non-PFC packet addressed to this host.
	Handler func(p *Packet)

	eng *sim.Engine
}

// NewHost creates a host with an unconnected NIC port.
func NewHost(eng *sim.Engine, name string, ip Addr, rateBps float64, prop sim.Time) *Host {
	h := &Host{Name: name, IP: ip, eng: eng}
	h.NIC = NewPort(eng, h, rateBps, prop)
	return h
}

// DeviceName implements Device.
func (h *Host) DeviceName() string { return h.Name }

// Receive implements Device. The packet is released after the handler
// returns: a Handler that wants to keep any of it must copy fields out or
// Clone before returning.
func (h *Host) Receive(p *Packet, in *Port) {
	switch p.Type {
	case Pause:
		in.setPaused(true)
	case Resume:
		in.setPaused(false)
	default:
		if h.Handler != nil {
			h.Handler(p)
		}
	}
	p.Release()
}

// Send transmits p out the host's NIC.
func (h *Host) Send(p *Packet) { h.NIC.Send(p) }

// Engine returns the simulation engine driving this host.
func (h *Host) Engine() *sim.Engine { return h.eng }
