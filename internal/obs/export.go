package obs

import (
	"bufio"
	"fmt"
	"io"
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
