package obs

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

const (
	audHost = uint32(0x0A000001)
	audPeer = uint32(0x0A000002)
)

func simT(at int64) sim.Time { return sim.Time(at) }

func observeAll(a *Auditor, evs []Event) {
	for i := range evs {
		a.Observe(&evs[i])
	}
}

// expectViolation asserts exactly n violations, all from the named checker.
func expectViolation(t *testing.T, a *Auditor, check string, n int) {
	t.Helper()
	if a.ViolationCount() != uint64(n) {
		t.Fatalf("got %d violations, want %d: %v", a.ViolationCount(), n, a.Violations())
	}
	for _, v := range a.Violations() {
		if v.Check != check {
			t.Fatalf("violation from checker %q, want %q: %v", v.Check, check, &v)
		}
	}
}

// sendEv builds an origin-host data enqueue for the flow (audHost, qp 2).
func sendEv(at int64, psn uint64) Event {
	return Event{At: simT(at), Dev: 0, Kind: KEnqueue, Port: 0, PT: ptData,
		Src: audHost, Dst: audPeer, SrcQP: 2, DstQP: 3, PSN: psn,
		Msg: uint64(audHost)<<32 | 1, A: 1064 * int64(1), B: 1064}
}

func TestAuditCleanStream(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	evs := []Event{sendEv(100, 0), sendEv(200, 1), sendEv(300, 2),
		{At: 400, Dev: 0, Kind: KAckRx, Port: -1, Src: audPeer, Dst: audHost, SrcQP: 3, DstQP: 2, PSN: 2},
		{At: 500, Dev: 5, Kind: KDeliver, Port: -1, Dst: audPeer, DstQP: 3, PSN: 0, Msg: uint64(audHost)<<32 | 1, A: 400, B: 1024},
	}
	// Fix the depth replay: successive enqueues at one port must accumulate.
	evs[1].A, evs[2].A = 2128, 3192
	observeAll(a, evs)
	if !a.Clean() || a.Err() != nil {
		t.Fatalf("clean stream flagged: %v", a.Violations())
	}
	if a.Seen() != uint64(len(evs)) {
		t.Fatalf("seen %d, want %d", a.Seen(), len(evs))
	}
	if !strings.Contains(a.Verdict(), "PASS") {
		t.Fatalf("verdict: %s", a.Verdict())
	}
}

func TestAuditPSNSkip(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	evs := []Event{sendEv(100, 0), sendEv(200, 3)}
	evs[1].A = 2128
	observeAll(a, evs)
	expectViolation(t, a, "gbn", 1)
}

func TestAuditRetxOfAcked(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	evs := []Event{sendEv(100, 0), sendEv(200, 1),
		{At: 300, Dev: 0, Kind: KAckRx, Port: -1, Src: audPeer, Dst: audHost, SrcQP: 3, DstQP: 2, PSN: 1},
		sendEv(400, 0), // retransmits PSN 0, already cumulatively acked
	}
	evs[1].A = 2128
	evs[3].A = 3192
	observeAll(a, evs)
	expectViolation(t, a, "gbn", 1)
}

func TestAuditAckBeyondSent(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	observeAll(a, []Event{sendEv(100, 0),
		{At: 200, Dev: 0, Kind: KAckRx, Port: -1, Src: audPeer, Dst: audHost, SrcQP: 3, DstQP: 2, PSN: 9},
	})
	expectViolation(t, a, "ack", 1)
}

func TestAuditNackBeyondNext(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	observeAll(a, []Event{sendEv(100, 0),
		{At: 200, Dev: 0, Kind: KNackRx, Port: -1, Src: audPeer, Dst: audHost, SrcQP: 3, DstQP: 2, PSN: 9},
	})
	expectViolation(t, a, "ack", 1)
}

func TestAuditWindowOverrun(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{WindowPkts: 2})
	evs := []Event{sendEv(100, 0), sendEv(200, 1), sendEv(300, 2)}
	evs[1].A, evs[2].A = 2128, 3192
	observeAll(a, evs)
	expectViolation(t, a, "gbn", 1)
}

func TestAuditRetxDecision(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	observeAll(a, []Event{sendEv(100, 0),
		// RNIC-level retransmit of a PSN that was never transmitted.
		{At: 200, Dev: 0, Kind: KRetransmit, Port: -1, PT: ptData, Src: audHost, Dst: audPeer, SrcQP: 2, PSN: 7, Msg: uint64(audHost)<<32 | 1, B: 1024},
	})
	expectViolation(t, a, "gbn", 1)
}

func TestAuditDuplicateDeliver(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	msg := uint64(audHost)<<32 | 9
	d := Event{At: 100, Dev: 5, Kind: KDeliver, Port: -1, Dst: audPeer, DstQP: 3, PSN: 4, Msg: msg, A: 400, B: 1024}
	d2 := d
	d2.At, d2.PSN = 200, 5
	d3 := d // same (message, receiver) again
	d3.At, d3.PSN = 300, 6
	observeAll(a, []Event{d, d2, d3})
	if a.ViolationCount() != 2 { // d2 and d3 both re-deliver msg at dev 5
		t.Fatalf("got %d violations: %v", a.ViolationCount(), a.Violations())
	}
}

func TestAuditDeliveryPSNRegression(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	observeAll(a, []Event{
		{At: 100, Dev: 5, Kind: KDeliver, Port: -1, Dst: audPeer, DstQP: 3, PSN: 7, A: 400, B: 1024},
		{At: 200, Dev: 5, Kind: KDeliver, Port: -1, Dst: audPeer, DstQP: 3, PSN: 6, A: 400, B: 1024},
	})
	expectViolation(t, a, "deliver", 1)
}

func TestAuditPortConservation(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	enq := func(at, depth int64) Event {
		return Event{At: simT(at), Dev: 1, Kind: KEnqueue, Port: 2, PT: ptData, Src: audHost, Dst: audPeer, A: depth, B: 1064}
	}
	deq := func(at, depth int64) Event {
		return Event{At: simT(at), Dev: 1, Kind: KDequeue, Port: 2, PT: ptData, Src: audHost, Dst: audPeer, A: depth, B: 1064}
	}
	observeAll(a, []Event{enq(100, 1064), enq(200, 2128), deq(300, 1064), deq(400, 0)})
	if !a.Clean() {
		t.Fatalf("conserving replay flagged: %v", a.Violations())
	}
	observeAll(a, []Event{enq(500, 9999)}) // 0 + 1064 != 9999
	expectViolation(t, a, "port", 1)
}

func TestAuditFaultDropDesyncs(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	observeAll(a, []Event{
		{At: 100, Dev: 1, Kind: KEnqueue, Port: 2, PT: ptData, A: 1064, B: 1064},
		// A link-fault purge records drops against bulk byte counts; the
		// replayed depth is unknowable until the next enqueue re-anchors.
		{At: 200, Dev: 1, Kind: KDrop, Reason: RFault, Port: 2, PT: ptData, A: 1064, B: 1064},
		{At: 300, Dev: 1, Kind: KEnqueue, Port: 2, PT: ptData, A: 424242, B: 1064},
		{At: 400, Dev: 1, Kind: KEnqueue, Port: 2, PT: ptData, A: 424242 + 1064, B: 1064},
	})
	if !a.Clean() {
		t.Fatalf("fault purge must desync, not violate: %v", a.Violations())
	}
}

func TestAuditTailDropDepth(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	observeAll(a, []Event{
		{At: 100, Dev: 1, Kind: KEnqueue, Port: 2, PT: ptData, A: 1064, B: 1064},
		// Tail drop at a full queue: depth must match the replay (1064).
		{At: 200, Dev: 1, Kind: KDrop, Reason: RQueueLimit, Port: 2, PT: ptData, A: 555, B: 1064},
	})
	expectViolation(t, a, "port", 1)
}

func TestAuditMFTLifecycle(t *testing.T) {
	t.Parallel()
	grp := uint32(0xE0000001)
	mft := func(at int64, k Kind, epoch int64) Event {
		return Event{At: simT(at), Dev: 1, Kind: k, Port: -1, Dst: grp, A: epoch}
	}
	t.Run("install-over-live", func(t *testing.T) {
		a := NewAuditor(AuditConfig{})
		observeAll(a, []Event{mft(1, KMFTInstall, 1), mft(2, KMFTInstall, 2)})
		expectViolation(t, a, "mft", 1)
	})
	t.Run("rebuild-then-install-same-epoch-ok", func(t *testing.T) {
		a := NewAuditor(AuditConfig{})
		observeAll(a, []Event{mft(1, KMFTInstall, 1), mft(2, KMFTRebuild, 2), mft(2, KMFTInstall, 2)})
		if !a.Clean() {
			t.Fatalf("epoch rebuild's re-install flagged: %v", a.Violations())
		}
	})
	t.Run("rebuild-not-newer", func(t *testing.T) {
		a := NewAuditor(AuditConfig{})
		observeAll(a, []Event{mft(1, KMFTInstall, 5), mft(2, KMFTRebuild, 5)})
		expectViolation(t, a, "mft", 1)
	})
	t.Run("stale-not-stale", func(t *testing.T) {
		a := NewAuditor(AuditConfig{})
		observeAll(a, []Event{mft(1, KMFTInstall, 3), mft(2, KMFTStale, 4)})
		expectViolation(t, a, "mft", 1)
	})
	t.Run("stale-ok", func(t *testing.T) {
		a := NewAuditor(AuditConfig{})
		observeAll(a, []Event{mft(1, KMFTInstall, 3), mft(2, KMFTStale, 2)})
		if !a.Clean() {
			t.Fatalf("genuinely stale replay flagged: %v", a.Violations())
		}
	})
	t.Run("wipe-install-cycle", func(t *testing.T) {
		a := NewAuditor(AuditConfig{})
		observeAll(a, []Event{mft(1, KMFTInstall, 1), mft(2, KMFTWipe, 1), mft(3, KMFTInstall, 1)})
		if !a.Clean() {
			t.Fatalf("install after wipe flagged: %v", a.Violations())
		}
	})
	t.Run("double-wipe", func(t *testing.T) {
		a := NewAuditor(AuditConfig{})
		observeAll(a, []Event{mft(1, KMFTInstall, 1), mft(2, KMFTWipe, 1), mft(3, KMFTWipe, 1)})
		expectViolation(t, a, "mft", 1)
	})
	t.Run("nack-while-live", func(t *testing.T) {
		a := NewAuditor(AuditConfig{})
		observeAll(a, []Event{mft(1, KMFTInstall, 1), mft(2, KMFTNack, 0)})
		expectViolation(t, a, "mft", 1)
	})
	t.Run("epoch-wraparound", func(t *testing.T) {
		a := NewAuditor(AuditConfig{})
		// Serial arithmetic: 2 is newer than 65535, so a rebuild across the
		// wrap is legitimate.
		observeAll(a, []Event{mft(1, KMFTInstall, 65535), mft(2, KMFTRebuild, 2), mft(2, KMFTInstall, 2)})
		if !a.Clean() {
			t.Fatalf("wraparound rebuild flagged: %v", a.Violations())
		}
	})
}

func TestAuditPSNSyncResets(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	evs := []Event{sendEv(100, 0), sendEv(200, 1)}
	evs[1].A = 2128
	// Recovery resynchronizes the flow to PSN 40; the next first transmission
	// at 40 must not read as a skip from 2.
	sync := Event{At: 300, Dev: 0, Kind: KPSNSync, Port: -1, Src: audHost, SrcQP: 2, PSN: 40, A: 0}
	after := sendEv(400, 40)
	after.A = 3192
	observeAll(a, append(evs, sync, after))
	if !a.Clean() {
		t.Fatalf("sanctioned PSN sync flagged: %v", a.Violations())
	}

	// Receive side: a delivery below the previous next-PSN is fine after the
	// responder resynchronized.
	b := NewAuditor(AuditConfig{})
	observeAll(b, []Event{
		{At: 100, Dev: 5, Kind: KDeliver, Port: -1, Dst: audPeer, DstQP: 3, PSN: 7, A: 1, B: 1024},
		{At: 200, Dev: 5, Kind: KPSNSync, Port: -1, Src: audPeer, SrcQP: 3, PSN: 2, A: 1},
		{At: 300, Dev: 5, Kind: KDeliver, Port: -1, Dst: audPeer, DstQP: 3, PSN: 2, A: 1, B: 1024},
	})
	if !b.Clean() {
		t.Fatalf("post-sync delivery flagged: %v", b.Violations())
	}
}

// TestAuditBatchCadenceInvariance feeds the same stream in different
// batch sizes; the auditor is per-event streaming, so cadence cannot change
// the verdict.
func TestAuditBatchCadenceInvariance(t *testing.T) {
	t.Parallel()
	evs := []Event{sendEv(100, 0), sendEv(200, 3), // skip -> 1 violation
		{At: 300, Dev: 5, Kind: KDeliver, Port: -1, Dst: audPeer, DstQP: 3, PSN: 7, A: 1, B: 1024},
		{At: 400, Dev: 5, Kind: KDeliver, Port: -1, Dst: audPeer, DstQP: 3, PSN: 6, A: 1, B: 1024},
	}
	evs[1].A = 2128
	var counts []uint64
	for _, chunk := range []int{1, 2, len(evs)} {
		a := NewAuditor(AuditConfig{})
		for i := 0; i < len(evs); i += chunk {
			end := i + chunk
			if end > len(evs) {
				end = len(evs)
			}
			observeAll(a, evs[i:end])
		}
		counts = append(counts, a.ViolationCount())
	}
	if counts[0] != 2 || counts[1] != counts[0] || counts[2] != counts[0] {
		t.Fatalf("violation counts vary with cadence: %v", counts)
	}
}

func TestAuditErrAndReport(t *testing.T) {
	t.Parallel()
	a := NewAuditor(AuditConfig{})
	observeAll(a, []Event{sendEv(100, 0), sendEv(200, 3)})
	evErr := a.Err()
	if evErr == nil || !strings.Contains(evErr.Error(), "violation") {
		t.Fatalf("Err() = %v", evErr)
	}
	var sb strings.Builder
	a.Report(&sb)
	if !strings.Contains(sb.String(), "gbn") {
		t.Fatalf("report missing checker id:\n%s", sb.String())
	}
	if !strings.Contains(a.Verdict(), "FAIL") {
		t.Fatalf("verdict: %s", a.Verdict())
	}
}
