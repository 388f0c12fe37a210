package obs

// Fabric holds the egress queue-depth histogram every port of a cluster
// feeds. The drop and fault counters live on the devices that count them
// (switches, ports, accelerators); the cluster sums them on read.
//
// A nil *Fabric is a valid no-op target: devices built outside a Cluster
// (unit tests, sub-simulations) skip the observation without a branch at
// every call site.
type Fabric struct {
	q Histogram // egress queue depth in bytes, observed at every enqueue
}

// NewFabric creates a fabric with an empty histogram.
func NewFabric() *Fabric { return &Fabric{} }

// ObserveQueue records an egress queue depth of n bytes. Safe on a nil
// receiver.
func (f *Fabric) ObserveQueue(n int) {
	if f != nil {
		f.q.Observe(int64(n))
	}
}

// QueueDepth summarizes the queue-depth histogram: the distribution, in
// bytes, of egress queue occupancy at each enqueue across the fabric.
func (f *Fabric) QueueDepth() Summary {
	if f == nil {
		return Summary{}
	}
	return f.q.Summary()
}
