package storage

import (
	"testing"

	"repro/internal/roce"
	"repro/internal/sim"
)

func newCluster(t *testing.T, mode Mode) *Cluster {
	t.Helper()
	c, err := NewCluster(mode, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSingleWriteCompletes(t *testing.T) {
	t.Parallel()
	for _, mode := range []Mode{Unicast1, UnicastN, CepheusWrite} {
		c := newCluster(t, mode)
		done := false
		c.SubmitWrite(8<<10, func() { done = true })
		c.tb.SettleUntil(c.tb.Now() + 10*sim.Millisecond)
		if !done {
			t.Fatalf("%v: write never committed", mode)
		}
		if c.Completed() != 1 {
			t.Fatalf("%v: completed=%d", mode, c.Completed())
		}
	}
}

func TestPipelinedWritesCompleteInOrder(t *testing.T) {
	t.Parallel()
	c := newCluster(t, UnicastN)
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		c.SubmitWrite(8<<10, func() { order = append(order, i) })
	}
	c.tb.SettleUntil(c.tb.Now() + 50*sim.Millisecond)
	if len(order) != 20 {
		t.Fatalf("completed %d of 20", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order broken at %d: %v", i, order[:i+1])
		}
	}
}

func TestTable1IOPSShape(t *testing.T) {
	t.Parallel()
	// Table I: 8KB IOPS — 1-unicast 1.188M, 3-unicasts 0.413M, Cepheus
	// 1.167M. We assert the shape: Cepheus ~ 1-unicast, and 3-unicasts at
	// roughly a third.
	iops := func(mode Mode) float64 {
		c := newCluster(t, mode)
		return c.RunIOPS(8<<10, 64, 20*sim.Millisecond)
	}
	u1 := iops(Unicast1)
	u3 := iops(UnicastN)
	ceph := iops(CepheusWrite)
	t.Logf("IOPS: 1-unicast=%.3fM 3-unicasts=%.3fM cepheus=%.3fM", u1/1e6, u3/1e6, ceph/1e6)
	if u1 < 0.9e6 || u1 > 1.5e6 {
		t.Fatalf("1-unicast IOPS %.3fM outside the calibrated band around 1.19M", u1/1e6)
	}
	if ceph < 0.85*u1 {
		t.Fatalf("cepheus %.3fM should be near 1-unicast %.3fM", ceph/1e6, u1/1e6)
	}
	if r := u3 / ceph; r < 0.25 || r > 0.55 {
		t.Fatalf("3-unicasts at %.0f%% of cepheus, paper says ~35%%", r*100)
	}
}

func TestFig10LatencyShape(t *testing.T) {
	t.Parallel()
	lat := func(mode Mode, size int) sim.Time {
		lat, err := newCluster(t, mode).MeasureLatency(size, 10)
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	// 8KB: Cepheus ~23% lower than 3-unicasts; 512KB: ~60% lower.
	u3Small, cephSmall := lat(UnicastN, 8<<10), lat(CepheusWrite, 8<<10)
	u3Big, cephBig := lat(UnicastN, 512<<10), lat(CepheusWrite, 512<<10)
	t.Logf("8KB: 3-uni=%v ceph=%v (-%.0f%%); 512KB: 3-uni=%v ceph=%v (-%.0f%%)",
		u3Small, cephSmall, 100*(1-float64(cephSmall)/float64(u3Small)),
		u3Big, cephBig, 100*(1-float64(cephBig)/float64(u3Big)))
	redSmall := 1 - float64(cephSmall)/float64(u3Small)
	redBig := 1 - float64(cephBig)/float64(u3Big)
	if redSmall < 0.10 || redSmall > 0.45 {
		t.Fatalf("8KB latency reduction %.0f%%, paper says ~23%%", redSmall*100)
	}
	if redBig < 0.45 || redBig > 0.75 {
		t.Fatalf("512KB latency reduction %.0f%%, paper says ~60%%", redBig*100)
	}
	if redBig <= redSmall {
		t.Fatal("the gap must widen with IO size (paper: 'enlarged as IO size increases')")
	}
	// And Cepheus ~ 1-unicast.
	u1Small := lat(Unicast1, 8<<10)
	if float64(cephSmall) > 1.3*float64(u1Small) {
		t.Fatalf("cepheus 8KB latency %v far above 1-unicast %v", cephSmall, u1Small)
	}
}

func TestUnicast1UsesOneServer(t *testing.T) {
	t.Parallel()
	c := newCluster(t, Unicast1)
	done := false
	c.SubmitWrite(8<<10, func() { done = true })
	c.tb.SettleUntil(c.tb.Now() + 10*sim.Millisecond)
	if !done {
		t.Fatal("write incomplete")
	}
	if c.acked[0] != 1 || c.acked[1] != 0 || c.acked[2] != 0 {
		t.Fatalf("acks %v, want only server 0", c.acked)
	}
}

func TestCepheusWriteHitsAllReplicas(t *testing.T) {
	t.Parallel()
	c := newCluster(t, CepheusWrite)
	done := false
	c.SubmitWrite(64<<10, func() { done = true })
	c.tb.SettleUntil(c.tb.Now() + 10*sim.Millisecond)
	if !done {
		t.Fatal("write incomplete")
	}
	for s, a := range c.acked {
		if a != 1 {
			t.Fatalf("server %d acked %d writes, want 1", s, a)
		}
	}
}

// TestCepheusWriteRewritesMR checks §III-B2's multicast-WRITE address
// rewrite end to end: the client writes once with its own MR, and every
// replica's message arrives carrying the VA and rkey that replica
// registered with the group.
func TestCepheusWriteRewritesMR(t *testing.T) {
	t.Parallel()
	c := newCluster(t, CepheusWrite)
	type mr struct {
		va   uint64
		rkey uint32
	}
	got := make([][]mr, c.Cfg.Replicas)
	for s := range got {
		s, m := s, c.group.Members[s+1]
		deliver := m.QP.OnMessage
		m.QP.OnMessage = func(msg roce.Message) {
			got[s] = append(got[s], mr{msg.WriteVA, msg.WriteRKey})
			deliver(msg)
		}
	}
	const writes = 3
	for i := 0; i < writes; i++ {
		c.SubmitWrite(64<<10, nil)
	}
	c.tb.SettleUntil(c.tb.Now() + 10*sim.Millisecond)
	if c.Completed() != writes {
		t.Fatalf("completed %d of %d writes", c.Completed(), writes)
	}
	for s, msgs := range got {
		m := c.group.Members[s+1]
		if m.WVA == 0 || m.WRKey == 0 {
			t.Fatalf("replica %d registered no MR", s)
		}
		if len(msgs) != writes {
			t.Fatalf("replica %d received %d messages, want %d", s, len(msgs), writes)
		}
		for i, x := range msgs {
			if x.va != m.WVA || x.rkey != m.WRKey {
				t.Errorf("replica %d write %d carried VA %#x rkey %d, want its own %#x/%d",
					s, i, x.va, x.rkey, m.WVA, m.WRKey)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	t.Parallel()
	if Unicast1.String() != "1-unicast" || UnicastN.String() != "n-unicasts" || CepheusWrite.String() != "cepheus" {
		t.Fatal("mode names changed")
	}
}
