package simnet

// InPool reports whether p is parked in the packet pool, so the external
// drop-sink tests can check that a killed frame was released.
func InPool(p *Packet) bool { return p.inPool }
