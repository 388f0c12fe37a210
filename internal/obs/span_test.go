package obs

import (
	"bytes"
	"strings"
	"testing"
)

const (
	spanOrigin = uint32(0x0A000001) // 10.0.0.1
	spanRcv1   = uint32(0x0A000002)
	spanRcv2   = uint32(0x0A000003)
	spanGroup  = uint32(0xE0000001)
)

// spanTestEvents is a hand-built canonical stream: one multicast message from
// the origin host (dev 0) through a leaf switch (dev 1, fanout 2) to two
// receivers (devs 2 and 3), with a cumulative ACK closing the epilogue.
func spanTestEvents() ([]Event, uint64) {
	msg := uint64(spanOrigin)<<32 | 7
	evs := []Event{
		{At: 100, Dev: 0, Kind: KEnqueue, Port: 0, PT: 0, Src: spanOrigin, Dst: spanGroup, SrcQP: 2, DstQP: 1, PSN: 5, Msg: msg, A: 1064, B: 1064},
		{At: 200, Dev: 0, Kind: KDequeue, Port: 0, PT: 0, Src: spanOrigin, Dst: spanGroup, SrcQP: 2, DstQP: 1, PSN: 5, Msg: msg, A: 0, B: 1064},
		// The leaf rewrites each clone's destination to the member address.
		{At: 300, Dev: 1, Kind: KEnqueue, Port: 1, PT: 0, Src: spanOrigin, Dst: spanRcv1, SrcQP: 2, DstQP: 1, PSN: 5, Msg: msg, A: 1064, B: 1064},
		{At: 300, Dev: 1, Kind: KEnqueue, Port: 2, PT: 0, Src: spanOrigin, Dst: spanRcv2, SrcQP: 2, DstQP: 1, PSN: 5, Msg: msg, A: 1064, B: 1064},
		{At: 400, Dev: 1, Kind: KDequeue, Port: 1, PT: 0, Src: spanOrigin, Dst: spanRcv1, SrcQP: 2, DstQP: 1, PSN: 5, Msg: msg, A: 0, B: 1064},
		{At: 400, Dev: 1, Kind: KDequeue, Port: 2, PT: 0, Src: spanOrigin, Dst: spanRcv2, SrcQP: 2, DstQP: 1, PSN: 5, Msg: msg, A: 0, B: 1064},
		{At: 500, Dev: 2, Kind: KDeliver, Port: -1, PT: 0, Src: spanOrigin, Dst: spanRcv1, SrcQP: 2, DstQP: 3, PSN: 5, Msg: msg, A: 400, B: 1024},
		{At: 520, Dev: 3, Kind: KDeliver, Port: -1, PT: 0, Src: spanOrigin, Dst: spanRcv2, SrcQP: 2, DstQP: 3, PSN: 5, Msg: msg, A: 420, B: 1024},
		{At: 600, Dev: 0, Kind: KAckRx, Port: -1, PT: 1, Src: spanRcv1, Dst: spanOrigin, SrcQP: 3, DstQP: 2, PSN: 5},
	}
	return evs, msg
}

func TestBuildSpansTreeAndDeliveries(t *testing.T) {
	t.Parallel()
	evs, msg := spanTestEvents()
	spans := BuildSpans(evs)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := &spans[0]
	if s.Msg != msg || s.Origin != spanOrigin || s.Dst != spanGroup || s.SrcQP != 2 {
		t.Fatalf("span identity wrong: %+v", s)
	}
	if s.Start != 100 || s.End != 600 || s.FirstPSN != 5 || s.LastPSN != 5 {
		t.Fatalf("span bounds wrong: start=%d end=%d psn=[%d,%d]", s.Start, s.End, s.FirstPSN, s.LastPSN)
	}
	if s.Bytes != 1024 {
		t.Fatalf("delivered bytes %d, want 1024", s.Bytes)
	}
	if len(s.Hops) != 2 {
		t.Fatalf("got %d hops, want 2 (origin + leaf)", len(s.Hops))
	}
	h0, h1 := &s.Hops[0], &s.Hops[1]
	if h0.Dev != 0 || h0.Depth != 0 || h0.Parent != -1 {
		t.Fatalf("origin hop wrong: %+v", h0)
	}
	if h1.Dev != 1 || h1.Depth != 1 || h1.Parent != 0 {
		t.Fatalf("leaf hop wrong: %+v", h1)
	}
	if h1.Fanout != 2 || h1.Enq != 2 || h1.Deq != 2 {
		t.Fatalf("leaf replication wrong: fanout=%d enq=%d deq=%d", h1.Fanout, h1.Enq, h1.Deq)
	}
	if len(s.Delivers) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(s.Delivers))
	}
	for i := range s.Delivers {
		d := &s.Delivers[i]
		if d.LastHop != 1 || d.PathLen != 2 {
			t.Fatalf("delivery %d not bound to the leaf: %+v", i, d)
		}
	}
	if s.Critical != 1 || s.Delivers[s.Critical].Dev != 3 {
		t.Fatalf("critical delivery wrong: idx=%d", s.Critical)
	}
	if s.AckRx != 1 || s.NackRx != 0 || s.Retx != 0 || s.Drops != 0 {
		t.Fatalf("epilogue wrong: ack=%d nack=%d retx=%d drops=%d", s.AckRx, s.NackRx, s.Retx, s.Drops)
	}
}

func TestBuildSpansDropAndRetx(t *testing.T) {
	t.Parallel()
	evs, msg := spanTestEvents()
	extra := []Event{
		{At: 350, Dev: 1, Kind: KDrop, Reason: RQueueLimit, Port: 1, PT: 0, Src: spanOrigin, Dst: spanRcv1, PSN: 6, Msg: msg, A: 1064, B: 1064},
		{At: 450, Dev: 0, Kind: KRetransmit, Port: -1, PT: 0, Src: spanOrigin, Dst: spanGroup, SrcQP: 2, PSN: 6, Msg: msg, B: 1024},
	}
	spans := BuildSpans(append(evs, extra...))
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := &spans[0]
	if s.Drops != 1 || s.Retx != 1 {
		t.Fatalf("drops=%d retx=%d, want 1/1", s.Drops, s.Retx)
	}
	if s.Hops[1].Drops != 1 {
		t.Fatalf("leaf hop drops=%d, want 1", s.Hops[1].Drops)
	}
}

func TestBuildSpansDeterministic(t *testing.T) {
	t.Parallel()
	evs, _ := spanTestEvents()
	names := func(d uint32) string { return []string{"h1", "tor", "h2", "h3"}[d] }
	var a, b bytes.Buffer
	if err := WriteSpans(&a, BuildSpans(evs), names); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpans(&b, BuildSpans(evs), names); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteSpans output not deterministic across identical builds")
	}
	out := a.String()
	for _, want := range []string{
		"span msg=10.0.0.1#7", "dst=224.0.0.1",
		"hop tor", "parent=h1", "deliver h2", "deliver h3",
		"critical h3", "path: h1 > tor > h3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteSpans output missing %q:\n%s", want, out)
		}
	}
}

func TestMsgString(t *testing.T) {
	t.Parallel()
	if got := MsgString(uint64(spanOrigin)<<32 | 42); got != "10.0.0.1#42" {
		t.Fatalf("MsgString = %q", got)
	}
}

func TestWriteTimeline(t *testing.T) {
	t.Parallel()
	evs, msg := spanTestEvents()
	names := func(d uint32) string { return []string{"h1", "tor", "h2", "h3"}[d] }
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, evs, names, TimelineOptions{Width: 50, Msg: msg}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + legend + one lifeline per device that has events.
	if len(lines) != 2+4 {
		t.Fatalf("timeline has %d lines, want 6:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "timeline ") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("timeline missing deliver glyph:\n%s", out)
	}
	// The ACK epilogue is excluded by Msg selection (its Msg is 0), so the
	// origin row must show E/D but no A.
	for _, l := range lines[2:] {
		if strings.HasPrefix(l, "h1") && strings.Contains(l, "A") {
			t.Fatalf("msg-filtered timeline leaked epilogue events: %q", l)
		}
	}
}
