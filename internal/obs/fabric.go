package obs

// FCounter names one cluster-wide fabric counter. The set mirrors the
// fields of the root package's Metrics struct; Metrics() is assembled from
// Fabric totals instead of walking every device.
type FCounter uint8

const (
	// FDataDrops: injected random data-packet loss at switches.
	FDataDrops FCounter = iota
	// FCtrlDrops: injected random control-packet loss at switches.
	FCtrlDrops
	// FCrashDrops: frames that reached or left a crashed switch.
	FCrashDrops
	// FNoRouteDrops: frames with no FIB entry.
	FNoRouteDrops
	// FFaultDrops: frames killed by a dead link.
	FFaultDrops
	// FMFTWipes: MFT entries wiped by switch crashes.
	FMFTWipes
	// FEpochRebuilds: MFTs replaced wholesale by a newer-epoch registration.
	FEpochRebuilds
	// FStaleMRPDropped: older-epoch MRP replays discarded.
	FStaleMRPDropped
	// FUnknownGroupDrops: multicast data dropped for lack of an MFT.
	FUnknownGroupDrops
	// FUnknownGroupNacks: unknown-group NACKs emitted toward sources.
	FUnknownGroupNacks
	// FImpairDrops: frames lost to gray-failure wire impairments (independent
	// and burst loss) at ports.
	FImpairDrops
	// FCorruptDrops: frames lost to injected CRC corruption at ports.
	FCorruptDrops
	// FStormDrops: control frames lost to control-plane loss storms at ports.
	FStormDrops

	NumFCounters
)

var fcounterNames = [...]string{
	"data-drops", "ctrl-drops", "crash-drops", "no-route-drops", "fault-drops",
	"mft-wipes", "epoch-rebuilds", "stale-mrp", "unknown-group-drops",
	"unknown-group-nacks", "impair-drops", "corrupt-drops", "ctrl-storm-drops",
}

// String names the counter (stable identifiers for exports and series).
func (c FCounter) String() string {
	if int(c) < len(fcounterNames) {
		return fcounterNames[c]
	}
	return "?"
}

// Fabric holds the cluster-wide fabric counters and the egress queue-depth
// histogram. Every device of a cluster updates the same Fabric, so the hot
// path is a plain add; totals are read between runs.
//
// A nil *Fabric is a valid no-op target: devices built outside a Cluster
// (unit tests, sub-simulations) skip fabric accounting without a branch at
// every call site.
type Fabric struct {
	c [NumFCounters]uint64
	q Histogram // egress queue depth in bytes, observed at every enqueue
}

// NewFabric creates a fabric with every counter at zero.
func NewFabric() *Fabric { return &Fabric{} }

// Inc adds 1 to counter id. Safe on a nil receiver.
func (f *Fabric) Inc(id FCounter) {
	if f != nil {
		f.c[id]++
	}
}

// Add adds n to counter id. Safe on a nil receiver.
func (f *Fabric) Add(id FCounter, n uint64) {
	if f != nil {
		f.c[id] += n
	}
}

// ObserveQueue records an egress queue depth of n bytes. Safe on a nil
// receiver.
func (f *Fabric) ObserveQueue(n int) {
	if f != nil {
		f.q.Observe(int64(n))
	}
}

// Total returns counter id (0 on a nil receiver).
func (f *Fabric) Total(id FCounter) uint64 {
	if f == nil {
		return 0
	}
	return f.c[id]
}

// QueueDepth summarizes the queue-depth histogram: the distribution, in
// bytes, of egress queue occupancy at each enqueue across the fabric.
func (f *Fabric) QueueDepth() Summary {
	if f == nil {
		return Summary{}
	}
	return f.q.Summary()
}
