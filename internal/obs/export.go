package obs

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/sim"
)

// WriteJSONL writes events as one JSON object per line. The schema is
// fixed-width (every key always present) so downstream tooling — including
// cmd/cepheus-trace — can decode records without schema negotiation:
//
//	{"t":<ns>,"dev":"<name>","port":<id>,"kind":"<Kind>","reason":"<Reason>",
//	 "pt":"<PacketType>","src":"<addr>","dst":"<addr>","sqp":<n>,"dqp":<n>,
//	 "psn":<n>,"msg":<n>,"a":<n>,"b":<n>}
func (r *Recorder) WriteJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	for i := range evs {
		e := &evs[i]
		_, err := fmt.Fprintf(bw,
			"{\"t\":%d,\"dev\":%q,\"port\":%d,\"kind\":%q,\"reason\":%q,\"pt\":%q,\"src\":%q,\"dst\":%q,\"sqp\":%d,\"dqp\":%d,\"psn\":%d,\"msg\":%d,\"a\":%d,\"b\":%d}\n",
			int64(e.At), r.DevName(e.Dev), e.Port, e.Kind.String(), e.Reason.String(),
			PktTypeName(e.PT), AddrString(e.Src), AddrString(e.Dst), e.SrcQP, e.DstQP, e.PSN, e.Msg, e.A, e.B)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteText writes events in a pcap-like human-readable form, one event per
// line: timestamp, device[:port], kind, frame type, src > dst, PSN, and the
// kind-specific a/b payload.
func (r *Recorder) WriteText(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	for i := range evs {
		e := &evs[i]
		dev := r.DevName(e.Dev)
		if e.Port >= 0 {
			dev = fmt.Sprintf("%s:%d", dev, e.Port)
		}
		line := fmt.Sprintf("%-14v %-12s %-11s", sim.Time(e.At), dev, e.Kind)
		if e.Reason != RNone {
			line += fmt.Sprintf(" [%s]", e.Reason)
		}
		if e.Src != 0 || e.Dst != 0 {
			line += fmt.Sprintf(" %s %s > %s psn=%d", PktTypeName(e.PT), AddrString(e.Src), AddrString(e.Dst), e.PSN)
		}
		if e.Msg != 0 {
			line += fmt.Sprintf(" msg=%d", e.Msg)
		}
		line += fmt.Sprintf(" a=%d b=%d", e.A, e.B)
		if _, err := fmt.Fprintln(bw, line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
