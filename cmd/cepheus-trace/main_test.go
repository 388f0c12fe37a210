package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// exportLines are records as obs.WriteJSONL writes them.
const exportLines = `{"t":1500,"dev":"h0","port":0,"kind":"ENQ","reason":"","pt":"DATA","src":"10.0.0.1","dst":"10.0.0.3","sqp":2,"dqp":2,"psn":0,"msg":720575944674246656,"a":1106,"b":1106}
{"t":29226826,"dev":"tor0","port":1,"kind":"ENQ","reason":"","pt":"DATA","src":"224.0.0.1","dst":"10.0.0.2","sqp":2,"dqp":2,"psn":166821,"msg":720575944674246661,"a":1106,"b":1106}

{"t":29226986,"dev":"h1","port":-1,"kind":"ACK-TX","reason":"","pt":"ACK","src":"10.0.0.2","dst":"224.0.0.1","sqp":2,"dqp":2,"psn":166815,"msg":0,"a":0,"b":0}
{"t":29227000,"dev":"tor0","port":3,"kind":"DROP","reason":"qlimit","pt":"DATA","src":"224.0.0.1","dst":"10.0.0.4","sqp":2,"dqp":2,"psn":166822,"msg":720575944674246661,"a":0,"b":1106}
`

func TestReadTraceAcceptsExport(t *testing.T) {
	tr, err := readTrace(strings.NewReader(exportLines))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.evs) != 4 || len(tr.names) != 3 {
		t.Fatalf("decoded %d events on %d devices, want 4 on 3", len(tr.evs), len(tr.names))
	}
	if e := tr.evs[3]; e.Kind != obs.KDrop || e.Reason != obs.RQueueLimit || tr.name(e.Dev) != "tor0" {
		t.Fatalf("last event decoded as %+v on %q", e, tr.name(e.Dev))
	}
}

// TestReadTraceRejects: records no export can produce are errors, not
// silently narrowed or accepted.
func TestReadTraceRejects(t *testing.T) {
	first := strings.SplitN(exportLines, "\n", 2)[0]
	for name, in := range map[string]string{
		"empty":     "",
		"blank":     "\n\n",
		"truncated": first[:40],
		"port":      strings.Replace(first, `"port":0`, `"port":70000`, 1),
		"port<-1":   strings.Replace(first, `"port":0`, `"port":-2`, 1),
		"time":      strings.Replace(first, `"t":1500`, `"t":-5`, 1),
		"kind":      strings.Replace(first, `"kind":"ENQ"`, `"kind":"enq"`, 1),
		"reason":    strings.Replace(first, `"reason":""`, `"reason":"gone"`, 1),
		"pt":        strings.Replace(first, `"pt":"DATA"`, `"pt":"PT(12)"`, 1),
		"src":       strings.Replace(first, `"src":"10.0.0.1"`, `"src":"10.0.0.01"`, 1),
		"dst":       strings.Replace(first, `"dst":"10.0.0.3"`, `"dst":"10.0.3"`, 1),
		"sqp":       strings.Replace(first, `"sqp":2`, `"sqp":-1`, 1),
	} {
		if _, err := readTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// FuzzReadTrace: the reader never panics, and every event it accepts
// re-encodes to the record it was read from — kind, reason, packet type,
// addresses, port, time and device name.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(exportLines))
	for _, l := range strings.Split(exportLines, "\n") {
		f.Add([]byte(l))
	}
	f.Add([]byte(`{"t":0,"dev":"","port":32767,"kind":"PSN-SYNC","reason":"ctrl-storm","pt":"RAW","src":"0.0.0.0","dst":"255.255.255.255"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := readTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(tr.evs) == 0 || len(tr.evs) != len(tr.lines) {
			t.Fatalf("accepted %d events from %d records", len(tr.evs), len(tr.lines))
		}
		// Re-read the non-blank lines the reader accepted, independently.
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		i := 0
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var l line
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatalf("record %d: accepted, but does not decode: %v", i, err)
			}
			e := tr.evs[i]
			switch {
			case e.Kind.String() != l.Kind:
				t.Fatalf("record %d: kind %q re-encodes as %q", i, l.Kind, e.Kind)
			case e.Reason.String() != l.Reason:
				t.Fatalf("record %d: reason %q re-encodes as %q", i, l.Reason, e.Reason)
			case obs.PktTypeName(e.PT) != l.PT:
				t.Fatalf("record %d: packet type %q re-encodes as %q", i, l.PT, obs.PktTypeName(e.PT))
			case obs.AddrString(e.Src) != l.Src || obs.AddrString(e.Dst) != l.Dst:
				t.Fatalf("record %d: addresses %q > %q re-encode as %q > %q",
					i, l.Src, l.Dst, obs.AddrString(e.Src), obs.AddrString(e.Dst))
			case int(e.Port) != l.Port:
				t.Fatalf("record %d: port %d narrowed to %d", i, l.Port, e.Port)
			case int64(e.At) != l.T:
				t.Fatalf("record %d: time %d read as %d", i, l.T, e.At)
			case tr.name(e.Dev) != l.Dev:
				t.Fatalf("record %d: device %q read as %q", i, l.Dev, tr.name(e.Dev))
			}
			i++
		}
		if i != len(tr.evs) {
			t.Fatalf("accepted %d events from %d records", len(tr.evs), i)
		}
	})
}
