// cepheus-trace inspects flight-recorder traces exported by cepheus-bench
// -trace or faultsim -trace (JSONL, one event per line).
//
// Usage:
//
//	cepheus-trace trace.jsonl                     # pcap-like listing
//	cepheus-trace -summary trace.jsonl            # per-device/kind census
//	cepheus-trace -kind DROP -reason qlimit t.jsonl
//	cepheus-trace -dev core-0 -from 2ms -to 5ms t.jsonl
//	cepheus-trace -group 1 t.jsonl                # events of multicast group 1
//
// Subcommands:
//
//	cepheus-trace spans [-group N] [-msg a.b.c.d#n] trace.jsonl
//	    reconstruct per-message causal spans: hop-by-hop latency, the
//	    replication tree, deliveries, retransmission epilogue, critical path
//	cepheus-trace timeline [-group N] [-msg a.b.c.d#n] [-width 96] t.jsonl
//	    fixed-width per-device lifelines over a time window
//	cepheus-trace diff [-json] a.jsonl b.jsonl
//	    census deltas between two runs; exits 1 when they differ (CI gate)
//	cepheus-trace groups [-json] [-slo spec] [-series] trace.jsonl
//	    per-multicast-group attribution rebuilt from the trace: delivered/
//	    dropped/retransmitted bytes, latency percentiles, fairness report
//	    (Jain's index, p99 isolation gap), optional SLO evaluation with a
//	    breach timeline (breaches exit 1, for CI gates)
//
// Empty, truncated, or corrupt input exits 2 with a one-line diagnosis on
// stderr — never an empty report.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

var (
	summary = flag.Bool("summary", false, "print a per-device/kind census instead of the listing")
	kind    = flag.String("kind", "", "keep only this event kind (ENQ, DEQ, DROP, ...)")
	reason  = flag.String("reason", "", "keep only this drop/fault reason (qlimit, loss, crash, ...)")
	dev     = flag.String("dev", "", "keep only this device (switch or host name)")
	dst     = flag.String("dst", "", "keep only this destination address (dotted quad)")
	group   = flag.Int("group", -1, "keep only this multicast group id (dst 224.0.0.<id>)")
	from    = flag.Duration("from", 0, "keep events at or after this virtual time")
	to      = flag.Duration("to", 0, "keep events at or before this virtual time (0: no bound)")
	diff    = flag.String("diff", "", "compare against this second trace: print census deltas")
)

// line mirrors the obs JSONL export schema.
type line struct {
	T      int64  `json:"t"`
	Dev    string `json:"dev"`
	Port   int    `json:"port"`
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
	PT     string `json:"pt"`
	Src    string `json:"src"`
	Dst    string `json:"dst"`
	SQP    uint32 `json:"sqp"`
	DQP    uint32 `json:"dqp"`
	PSN    uint64 `json:"psn"`
	Msg    uint64 `json:"msg"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cepheus-trace: "+format+"\n", args...)
	os.Exit(1)
}

// fatal2 diagnoses unusable input (empty, truncated, corrupt) in one line
// and exits 2 — the contract every subcommand shares, so a pipeline that
// fed us garbage can tell "bad input" (2) apart from "real difference" (1).
func fatal2(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cepheus-trace: "+format+"\n", args...)
	os.Exit(2)
}

// trace is one decoded export: its records as read, which the listing,
// census and diff print, and the obs events they decode to. Device ids are
// assigned in first-seen order (the export is already in canonical order, so
// the numbering — and everything derived from it — is deterministic);
// names inverts the assignment.
type trace struct {
	lines []line
	evs   []obs.Event
	names []string
}

// name renders device id d for the span, timeline and group reports.
func (t *trace) name(d uint32) string {
	if int(d) < len(t.names) {
		return t.names[d]
	}
	return "?"
}

// readTrace decodes a JSONL export, one event per line (blank lines are
// skipped). It rejects what no export can produce: malformed JSON, unknown
// kind, reason or packet-type names, malformed addresses, a port outside
// [-1, MaxInt16], a negative time, and an input with no events.
func readTrace(r io.Reader) (*trace, error) {
	t := &trace{}
	ids := make(map[string]uint32)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("line %d: truncated or corrupt trace: %v", n, err)
		}
		ev, err := l.event()
		if err != nil {
			return nil, fmt.Errorf("line %d: corrupt trace: %v", n, err)
		}
		id, ok := ids[l.Dev]
		if !ok {
			id = uint32(len(t.names))
			ids[l.Dev] = id
			t.names = append(t.names, l.Dev)
		}
		ev.Dev = id
		t.lines = append(t.lines, l)
		t.evs = append(t.evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("truncated trace: %v", err)
	}
	if len(t.evs) == 0 {
		return nil, fmt.Errorf("empty trace (no events)")
	}
	return t, nil
}

// event decodes one record, all but its device id.
func (l *line) event() (obs.Event, error) {
	if l.T < 0 {
		return obs.Event{}, fmt.Errorf("negative time %d", l.T)
	}
	if l.Port < -1 || l.Port > math.MaxInt16 {
		return obs.Event{}, fmt.Errorf("port %d out of range", l.Port)
	}
	k, ok := obs.KindByName(l.Kind)
	if !ok {
		return obs.Event{}, fmt.Errorf("unknown kind %q", l.Kind)
	}
	r := obs.RNone
	if l.Reason != "" {
		if r, ok = obs.ReasonByName(l.Reason); !ok {
			return obs.Event{}, fmt.Errorf("unknown reason %q", l.Reason)
		}
	}
	pt, ok := obs.PktTypeByName(l.PT)
	if !ok {
		return obs.Event{}, fmt.Errorf("unknown packet type %q", l.PT)
	}
	src, ok := obs.ParseAddr(l.Src)
	if !ok {
		return obs.Event{}, fmt.Errorf("bad src address %q", l.Src)
	}
	dstA, ok := obs.ParseAddr(l.Dst)
	if !ok {
		return obs.Event{}, fmt.Errorf("bad dst address %q", l.Dst)
	}
	return obs.Event{
		At: sim.Time(l.T), Port: int16(l.Port),
		Kind: k, Reason: r, PT: pt, Src: src, Dst: dstA,
		SrcQP: l.SQP, DstQP: l.DQP, PSN: l.PSN, Msg: l.Msg, A: l.A, B: l.B,
	}, nil
}

// load reads the trace at path. Unusable input exits 2 (fatal2).
func load(path string) *trace {
	f, err := os.Open(path)
	if err != nil {
		fatal2("%v", err)
	}
	defer f.Close()
	t, err := readTrace(f)
	if err != nil {
		fatal2("%s: %v", path, err)
	}
	return t
}

// parseMsg inverts obs.MsgString ("a.b.c.d#n").
func parseMsg(s string) (uint64, error) {
	i := strings.IndexByte(s, '#')
	if i < 0 {
		return 0, fmt.Errorf("bad message id %q (want origin#counter, e.g. 10.0.0.1#3)", s)
	}
	origin, ok := obs.ParseAddr(s[:i])
	if !ok {
		return 0, fmt.Errorf("bad origin address %q in message id", s[:i])
	}
	ctr, err := strconv.ParseUint(s[i+1:], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad counter in message id %q: %v", s, err)
	}
	return uint64(origin)<<32 | ctr, nil
}

func (l *line) keep() bool {
	if *kind != "" && l.Kind != *kind {
		return false
	}
	if *reason != "" && l.Reason != *reason {
		return false
	}
	if *dev != "" && l.Dev != *dev {
		return false
	}
	if *dst != "" && l.Dst != *dst {
		return false
	}
	if *group >= 0 && l.Dst != obs.AddrString(0xE0000000+uint32(*group)) {
		return false
	}
	if *from > 0 && l.T < int64(*from) {
		return false
	}
	if *to > 0 && l.T > int64(*to) {
		return false
	}
	return true
}

func filter(ls []line) []line {
	out := ls[:0]
	for i := range ls {
		if ls[i].keep() {
			out = append(out, ls[i])
		}
	}
	return out
}

// census keys events by device/kind (plus the reason for drops, where the
// reason is the interesting part).
func census(ls []line) map[string]int {
	m := make(map[string]int)
	for i := range ls {
		k := ls[i].Dev + " " + ls[i].Kind
		if ls[i].Reason != "" {
			k += "[" + ls[i].Reason + "]"
		}
		m[k]++
	}
	return m
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func printCensus(ls []line) {
	m := census(ls)
	for _, k := range sortedKeys(m) {
		fmt.Printf("%8d  %s\n", m[k], k)
	}
	var lo, hi int64
	if len(ls) > 0 {
		lo, hi = ls[0].T, ls[0].T
		for i := range ls {
			if ls[i].T < lo {
				lo = ls[i].T
			}
			if ls[i].T > hi {
				hi = ls[i].T
			}
		}
	}
	fmt.Printf("%8d  total over %v..%v\n", len(ls), time.Duration(lo), time.Duration(hi))
}

// censusDelta is one diverging census row, also the -json element schema.
type censusDelta struct {
	Key   string `json:"key"`
	A     int    `json:"a"`
	B     int    `json:"b"`
	Delta int    `json:"delta"`
}

func censusDeltas(a, b []line) []censusDelta {
	ca, cb := census(a), census(b)
	keys := make(map[string]bool)
	for k := range ca {
		keys[k] = true
	}
	for k := range cb {
		keys[k] = true
	}
	ks := make([]string, 0, len(keys))
	for k := range keys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var out []censusDelta
	for _, k := range ks {
		if ca[k] != cb[k] {
			out = append(out, censusDelta{Key: k, A: ca[k], B: cb[k], Delta: cb[k] - ca[k]})
		}
	}
	return out
}

func printDiff(a, b []line, pathA, pathB string) {
	ds := censusDeltas(a, b)
	for _, d := range ds {
		fmt.Printf("%8d -> %-8d %+-8d %s\n", d.A, d.B, d.Delta, d.Key)
	}
	if len(ds) == 0 {
		fmt.Printf("no census differences (%d events in %s, %d in %s)\n", len(a), pathA, len(b), pathB)
	}
}

func printListing(ls []line) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i := range ls {
		l := &ls[i]
		fmt.Fprintf(w, "%-14v %-12s %-11s", time.Duration(l.T), l.Dev, l.Kind)
		if l.Reason != "" {
			fmt.Fprintf(w, " [%s]", l.Reason)
		}
		if l.Port >= 0 {
			fmt.Fprintf(w, " port=%d", l.Port)
		}
		fmt.Fprintf(w, " %s %s > %s psn=%d", l.PT, l.Src, l.Dst, l.PSN)
		if l.Msg != 0 {
			fmt.Fprintf(w, " msg=%s", obs.MsgString(l.Msg))
		}
		fmt.Fprintf(w, " a=%d b=%d\n", l.A, l.B)
	}
}

// filterEvents applies the span/timeline selection (message, group, window)
// to decoded events. Epilogue events carry the group address only in Src/Dst
// asymmetrically, so group selection keys on the message's span membership:
// any event whose Msg matched survives regardless of its own addresses.
func filterEvents(evs []obs.Event, msg uint64, groupAddr uint32, from, to sim.Time) []obs.Event {
	if msg == 0 && groupAddr == 0 && from == 0 && to == 0 {
		return evs
	}
	// Pass 1: which messages touch the group address?
	inGroup := make(map[uint64]bool)
	if groupAddr != 0 {
		for i := range evs {
			if evs[i].Msg != 0 && evs[i].Dst == groupAddr {
				inGroup[evs[i].Msg] = true
			}
		}
	}
	out := evs[:0]
	for i := range evs {
		e := &evs[i]
		if msg != 0 && e.Msg != msg {
			continue
		}
		if groupAddr != 0 && !(e.Dst == groupAddr || (e.Msg != 0 && inGroup[e.Msg])) {
			continue
		}
		if from > 0 && e.At < from {
			continue
		}
		if to > 0 && e.At > to {
			continue
		}
		out = append(out, *e)
	}
	return out
}

func cmdSpans(args []string) {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	msgF := fs.String("msg", "", "only this message (origin#counter, e.g. 10.0.0.1#3)")
	groupF := fs.Int("group", -1, "only messages of this multicast group id")
	fromF := fs.Duration("from", 0, "only events at or after this virtual time")
	toF := fs.Duration("to", 0, "only events at or before this virtual time (0: no bound)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace spans [flags] trace.jsonl")
		fs.PrintDefaults()
		os.Exit(2)
	}
	var msg uint64
	if *msgF != "" {
		var err error
		if msg, err = parseMsg(*msgF); err != nil {
			fatalf("%v", err)
		}
	}
	var groupAddr uint32
	if *groupF >= 0 {
		groupAddr = 0xE0000000 + uint32(*groupF)
	}
	tr := load(fs.Arg(0))
	evs := filterEvents(tr.evs, msg, groupAddr, sim.Time(*fromF), sim.Time(*toF))
	spans := obs.BuildSpans(evs)
	if len(spans) == 0 {
		fatal2("no spans (trace has no message-tagged events in the selection)")
	}
	if err := obs.WriteSpans(os.Stdout, spans, tr.name); err != nil {
		fatalf("%v", err)
	}
}

func cmdTimeline(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	msgF := fs.String("msg", "", "only this message (origin#counter)")
	groupF := fs.Int("group", -1, "only events addressed to this multicast group id")
	fromF := fs.Duration("from", 0, "window start")
	toF := fs.Duration("to", 0, "window end (0: last event)")
	widthF := fs.Int("width", 0, "lifeline width in columns (0: 96)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace timeline [flags] trace.jsonl")
		fs.PrintDefaults()
		os.Exit(2)
	}
	opt := obs.TimelineOptions{
		From:  sim.Time(*fromF),
		To:    sim.Time(*toF),
		Width: *widthF,
	}
	if *msgF != "" {
		var err error
		if opt.Msg, err = parseMsg(*msgF); err != nil {
			fatalf("%v", err)
		}
	}
	if *groupF >= 0 {
		opt.Group = 0xE0000000 + uint32(*groupF)
	}
	tr := load(fs.Arg(0))
	if err := obs.WriteTimeline(os.Stdout, tr.evs, tr.name, opt); err != nil {
		fatalf("%v", err)
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	jsonF := fs.Bool("json", false, "emit the deltas as JSON")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace diff [-json] a.jsonl b.jsonl")
		fs.PrintDefaults()
		os.Exit(2)
	}
	a, b := load(fs.Arg(0)).lines, load(fs.Arg(1)).lines
	ds := censusDeltas(a, b)
	if *jsonF {
		out := struct {
			A       string        `json:"a"`
			B       string        `json:"b"`
			EventsA int           `json:"events_a"`
			EventsB int           `json:"events_b"`
			Equal   bool          `json:"equal"`
			Changed []censusDelta `json:"changed"`
		}{fs.Arg(0), fs.Arg(1), len(a), len(b), len(ds) == 0, ds}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("%v", err)
		}
	} else {
		printDiff(a, b, fs.Arg(0), fs.Arg(1))
	}
	if len(ds) != 0 {
		os.Exit(1)
	}
}

// cmdGroups rebuilds per-group attribution from the trace: the offline
// twin of Cluster.EnableGroupStats, so any existing JSONL export can answer
// "who got what" and "did anyone breach" after the fact.
func cmdGroups(args []string) {
	fs := flag.NewFlagSet("groups", flag.ExitOnError)
	jsonF := fs.Bool("json", false, "emit reports + fairness (+ SLO results) as JSON")
	bucketF := fs.Duration("bucket", 0, "goodput time-series bucket (0: 100us)")
	sloF := fs.String("slo", "", "evaluate objectives against every group: p99=<dur>,goodput=<B/s>,drops=<frac>[,window=<dur>]")
	seriesF := fs.Bool("series", false, "append each group's goodput time-series to the text output")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace groups [flags] trace.jsonl")
		fs.PrintDefaults()
		os.Exit(2)
	}
	var obj obs.SLOObjective
	var win obs.SLOWindows
	var objFor func(uint32) (obs.SLOObjective, bool)
	if *sloF != "" {
		var err error
		if obj, win, err = obs.ParseSLO(*sloF); err != nil {
			fatalf("%v", err)
		}
		objFor = func(uint32) (obs.SLOObjective, bool) { return obj, true }
	}
	evs := load(fs.Arg(0)).evs
	reps := obs.GroupReportsFromEvents(evs, sim.Time(*bucketF), objFor)
	if len(reps) == 0 {
		fatal2("%s: no multicast group traffic in trace (%d events)", fs.Arg(0), len(evs))
	}
	var results []obs.SLOResult
	if objFor != nil {
		results = obs.EvalSLOs(reps, objFor, win)
	}
	breached := 0
	if *jsonF {
		for i := range results {
			if results[i].Breached() {
				breached++
			}
		}
		out := struct {
			Groups   []obs.GroupReport  `json:"groups"`
			Fairness obs.FairnessReport `json:"fairness"`
			SLO      []obs.SLOResult    `json:"slo,omitempty"`
		}{reps, obs.Fairness(reps), results}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("%v", err)
		}
	} else {
		obs.WriteGroupTable(os.Stdout, reps)
		if *seriesF {
			for i := range reps {
				r := &reps[i]
				fmt.Printf("series g%d (bucket %v):\n", r.ID(), r.Bucket)
				for _, p := range r.Series {
					fmt.Printf("  %-12v bytes=%d msgs=%d slow=%d drops=%d retx=%d\n",
						p.Start, p.Bytes, p.Msgs, p.Slow, p.Drops, p.Retrans)
				}
			}
		}
		breached = obs.WriteSLOReport(os.Stdout, results)
	}
	if breached > 0 {
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "spans":
			cmdSpans(os.Args[2:])
			return
		case "timeline":
			cmdTimeline(os.Args[2:])
			return
		case "diff":
			cmdDiff(os.Args[2:])
			return
		case "groups":
			cmdGroups(os.Args[2:])
			return
		}
	}
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace [flags] trace.jsonl")
		fmt.Fprintln(os.Stderr, "       cepheus-trace spans|timeline|diff|groups -h")
		flag.PrintDefaults()
		os.Exit(2)
	}
	ls := filter(load(flag.Arg(0)).lines)
	switch {
	case *diff != "":
		printDiff(ls, filter(load(*diff).lines), flag.Arg(0), *diff)
	case *summary:
		printCensus(ls)
	default:
		printListing(ls)
	}
}
