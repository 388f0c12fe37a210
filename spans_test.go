package cepheus

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSpanRoundTripTestbed drives the fig8 workload (testbed broadcast size
// sweep) with the flight recorder on and folds the trace back into causal
// spans: every traced message must yield exactly one span, and on the
// two-level testbed every multicast span crosses exactly two hops (origin
// host NIC + ToR) with one delivery per non-origin member at path length 2.
func TestSpanRoundTripTestbed(t *testing.T) {
	t.Parallel()
	c := NewTestbed(4, Options{Seed: 1})
	rec := c.EnableTrace(1 << 20)
	b, err := c.Broadcaster(SchemeCepheus, []int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{64, 512, 4 << 10, 64 << 10} {
		if _, err := c.RunBcastErr(b, 0, size); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
	c.SettleUntil(c.Now() + sim.Millisecond)
	evs := rec.Events()
	if rec.Lost() != 0 {
		t.Fatalf("flight recorder overflowed (lost %d)", rec.Lost())
	}

	traced := make(map[uint64]bool)
	for i := range evs {
		if evs[i].Msg != 0 {
			traced[evs[i].Msg] = true
		}
	}
	if len(traced) == 0 {
		t.Fatal("trace carries no message ids")
	}
	spans := obs.BuildSpans(evs)
	perMsg := make(map[uint64]int)
	for i := range spans {
		perMsg[spans[i].Msg]++
	}
	if len(spans) != len(traced) {
		t.Errorf("%d spans for %d traced messages", len(spans), len(traced))
	}
	for m := range traced {
		if perMsg[m] != 1 {
			t.Errorf("message %s has %d spans, want exactly 1", obs.MsgString(m), perMsg[m])
		}
	}
	for i := range spans {
		s := &spans[i]
		if len(s.Hops) != 2 {
			t.Errorf("span %s crosses %d hops, want 2 (host NIC + ToR)", obs.MsgString(s.Msg), len(s.Hops))
			continue
		}
		if s.Hops[0].Depth != 0 || s.Hops[0].Parent != -1 || s.Hops[1].Depth != 1 || s.Hops[1].Parent != 0 {
			t.Errorf("span %s hop tree malformed: %+v", obs.MsgString(s.Msg), s.Hops)
		}
		if len(s.Delivers) != 3 {
			t.Errorf("span %s has %d deliveries, want 3 (every non-origin member)", obs.MsgString(s.Msg), len(s.Delivers))
		}
		for j := range s.Delivers {
			if d := &s.Delivers[j]; d.PathLen != 2 || d.LastHop != 1 {
				t.Errorf("span %s delivery %d: pathlen=%d lasthop=%d, want 2/1", obs.MsgString(s.Msg), j, d.PathLen, d.LastHop)
			}
		}
		if s.Bytes == 0 {
			t.Errorf("span %s delivered no payload bytes", obs.MsgString(s.Msg))
		}
		if s.Critical < 0 {
			t.Errorf("span %s has no critical delivery", obs.MsgString(s.Msg))
		}
	}
}

// spanWorkload runs the traced k=8 workload and returns its rendered spans.
func spanWorkload(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	k8Workload(1).traced(t, 1<<20, nil, func(c *Cluster, evs []obs.Event) {
		spans := obs.BuildSpans(evs)
		if len(spans) == 0 {
			t.Fatal("no spans reconstructed from the fat-tree trace")
		}
		if err := obs.WriteSpans(&buf, spans, c.Rec.DevName); err != nil {
			t.Fatal(err)
		}
	})
	return buf.Bytes()
}

// TestSpanWorkerInvariance: the span rendering of the k=8 workload is
// byte-identical on a second run. The name dates from when the comparison
// was across worker counts; one engine is left.
func TestSpanWorkerInvariance(t *testing.T) {
	t.Parallel()
	ref := spanWorkload(t)
	if got := spanWorkload(t); !bytes.Equal(ref, got) {
		t.Errorf("second run's span rendering diverges (%d vs %d bytes)", len(got), len(ref))
	}
}
