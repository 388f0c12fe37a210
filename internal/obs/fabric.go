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

// FabricLP is one logical process's shard of the fabric counters and of
// the egress queue-depth histogram. Every device owned by an LP updates the
// same shard, so the hot path is a plain (non-atomic) add with no cross-LP
// cache contention; totals are read only when the simulation is quiescent.
// The struct is padded to a whole number of cache-line pairs so adjacent
// shards never false-share.
//
// A nil *FabricLP is a valid no-op target: devices built outside a Cluster
// (unit tests, sub-simulations) skip fabric accounting without a branch at
// every call site.
type FabricLP struct {
	c [NumFCounters]uint64
	q Histogram // egress queue depth in bytes, observed at every enqueue
	_ [96]byte  // pads the 160-byte shard to 256 bytes
}

// Inc adds 1 to counter id. Safe on a nil receiver.
func (l *FabricLP) Inc(id FCounter) {
	if l != nil {
		l.c[id]++
	}
}

// Add adds n to counter id. Safe on a nil receiver.
func (l *FabricLP) Add(id FCounter, n uint64) {
	if l != nil {
		l.c[id] += n
	}
}

// ObserveQueue records an egress queue depth of n bytes. Safe on a nil
// receiver.
func (l *FabricLP) ObserveQueue(n int) {
	if l != nil {
		l.q.Observe(int64(n))
	}
}

// Fabric holds one FabricLP shard per logical process.
type Fabric struct {
	lps []FabricLP
}

// NewFabric creates a fabric with n shards (n = number of LPs; 1 for
// sequential execution).
func NewFabric(n int) *Fabric {
	if n < 1 {
		n = 1
	}
	return &Fabric{lps: make([]FabricLP, n)}
}

// LP returns the shard for logical process i.
func (f *Fabric) LP(i int) *FabricLP {
	if f == nil {
		return nil
	}
	return &f.lps[i]
}

// Total sums counter id across all shards. Only meaningful while the
// simulation is quiescent (between Run calls).
func (f *Fabric) Total(id FCounter) uint64 {
	if f == nil {
		return 0
	}
	var t uint64
	for i := range f.lps {
		t += f.lps[i].c[id]
	}
	return t
}

// QueueDepth merges every shard's queue-depth histogram: the distribution,
// in bytes, of egress queue occupancy at each enqueue across the fabric.
// Only meaningful while the simulation is quiescent.
func (f *Fabric) QueueDepth() Summary {
	var h Histogram
	if f != nil {
		for i := range f.lps {
			h.Merge(&f.lps[i].q)
		}
	}
	return h.Summary()
}
