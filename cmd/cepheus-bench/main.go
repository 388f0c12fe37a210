// cepheus-bench prints every table and figure from the paper's evaluation
// (§V), as defined once in internal/paper, and adds its instrumentation
// (-trace, -audit, -groups/-slo, -json, -series) to their runs. It also owns
// the fairness experiment and the instrumentation overhead gates (traceov,
// gsov). The shapes (who wins, by what factor, where crossovers
// fall) are the reproduction targets recorded in EXPERIMENTS.md.
//
// Usage:
//
//	cepheus-bench                 # run everything except the slowest sweeps
//	cepheus-bench -only fig8      # one experiment
//	cepheus-bench -full           # include the full Fig 12/13 sweeps
//	cepheus-bench -name pr3       # also write BENCH_pr3.json for the perf trajectory
//	cepheus-bench -only fig8 -cpuprofile cpu.pb.gz   # profile one experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	cepheus "repro"
	"repro/internal/amcast"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/roce"
	"repro/internal/sim"
)

var (
	full       = flag.Bool("full", false, "run the full-size Fig 12/13 sweeps (slow)")
	jsonOut    = flag.String("json", "", "write machine-readable results (one record per broadcast) to this file")
	benchName  = flag.String("name", "", "also write results to BENCH_<name>.json, the machine-tracked perf trajectory")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	traceOut   = flag.String("trace", "", "record a flight-recorder trace and write it (JSONL) here; with several broadcasts the last one wins, so combine with -only")
	traceCap   = flag.Int("tracecap", 0, "flight-recorder capacity in events (0: default)")
	auditOn    = flag.Bool("audit", false, "run the online protocol auditor on every broadcast; violations fail the run")
	seriesOut  = flag.String("series", "", "fig14: sample per-flow DCQCN rates and queue depths, write the time series (CSV) here")
	groupsOn   = flag.Bool("groups", false, "enable per-group attribution; print the group table after each broadcast")
	sloSpec    = flag.String("slo", "", "with -groups (implied): per-group SLO, p99=<dur>,goodput=<bytes/s>,drops=<frac>[,window=<dur>]; breaches fail the run")
	maxOver    = flag.Float64("maxover", 0, "traceov/gsov: exit nonzero if the measured instrumentation costs more than this fraction of events/s (e.g. 0.03)")
)

// -slo parsed once at startup; sloSet gates the evaluation paths.
var (
	sloObj obs.SLOObjective
	sloWin obs.SLOWindows
	sloSet bool
)

// benchRecord is one broadcast's machine-readable result, written by -json so
// successive runs can be tracked as a BENCH_*.json trajectory.
type benchRecord struct {
	Experiment   string  `json:"experiment"`
	Case         string  `json:"case"`
	JCTNs        int64   `json:"jct_ns,omitempty"`
	EventsRun    uint64  `json:"events_run,omitempty"`
	EventsPerSec float64 `json:"events_per_sec"`
	Allocs       uint64  `json:"allocs,omitempty"`

	// Delivery-latency quantiles (requester emission to in-order responder
	// acceptance) and the deepest egress queue, from the always-on
	// histograms. Omitted when the experiment measures throughput only
	// (overhead-experiment rows carry no broadcast-level results).
	P50LatencyNs  int64 `json:"p50_latency_ns,omitempty"`
	P99LatencyNs  int64 `json:"p99_latency_ns,omitempty"`
	P999LatencyNs int64 `json:"p999_latency_ns,omitempty"`
	MaxQueueBytes int64 `json:"max_queue_bytes,omitempty"`

	// OverheadPct is the events/s cost of the measured instrumentation,
	// set only on the overhead experiments' "on" rows.
	OverheadPct float64 `json:"overhead_pct,omitempty"`

	// Host provenance, stamped on the leading {"experiment":"meta"} record
	// so a BENCH_*.json trajectory records what machine produced each point.
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`

	// Fairness columns (fairness experiment): the sweep-point summary row
	// carries the cross-group indices; per-group rows carry each group's own
	// goodput and delivery p99 (in P99LatencyNs). GroupID is a pointer so
	// group 0 survives omitempty.
	Groups          int     `json:"groups,omitempty"`
	JainIndex       float64 `json:"jain_index,omitempty"`
	MaxMinRatio     float64 `json:"maxmin_ratio,omitempty"`
	P99IsolationGap float64 `json:"p99_isolation_gap,omitempty"`
	GroupID         *int    `json:"group_id,omitempty"`
	GoodputBytes    int64   `json:"goodput_bytes,omitempty"`
}

var (
	records []benchRecord
	curExp  string // experiment currently running, for record attribution
)

func main() {
	only := flag.String("only", "", "comma-separated experiments to run: fig1d|fig7b|fig8|fig9|rdmc|table1|fig10|fig11|hpl-large|fig12|fig13|fig14|safeguard|reduce|pstrain|fairness|traceov|gsov")
	flag.Parse()
	os.Exit(run(*only))
}

// exitCode lets experiments (the -maxover gate) fail the process after
// profiles and JSON are still written.
var exitCode int

// run holds main's body so deferred profile writers fire before os.Exit.
func run(only string) int {
	if *sloSpec != "" {
		var err error
		if sloObj, sloWin, err = obs.ParseSLO(*sloSpec); err != nil {
			fmt.Fprintf(os.Stderr, "-slo: %v\n", err)
			return 2
		}
		sloSet = true
		*groupsOn = true // an SLO is meaningless without attribution
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	all := []struct {
		name string
		run  func() error
	}{
		{"fig1d", func() error { return show(paper.Fig1d(), nil) }},
		{"fig7b", func() error { t, _ := paper.Fig7b(); return show(t, nil) }},
		{"fig8", func() error { t, _, err := paper.Fig8(runBcast); return show(t, err) }},
		{"fig9", func() error { t, _, err := paper.Fig9(runBcast); return show(t, err) }},
		{"rdmc", func() error { t, _, err := paper.RDMC(runBcast); return show(t, err) }},
		{"table1", func() error { t, _, err := paper.Table1(); return show(t, err) }},
		{"fig10", func() error { t, _, err := paper.Fig10(); return show(t, err) }},
		{"fig11", func() error { t, _, err := paper.Fig11(); return show(t, err) }},
		{"hpl-large", func() error { t, _ := paper.HPLLarge(); return show(t, nil) }},
		{"fig12", func() error { t, _, err := paper.Fig12(runBcast, *full); return show(t, err) }},
		{"fig13", func() error { t, _, err := paper.Fig13(runBcast, *full); return show(t, err) }},
		{"fig14", fig14}, {"safeguard", safeguard},
		{"reduce", func() error { t, _, err := paper.Reduce(); return show(t, err) }},
		{"pstrain", func() error { t, _, err := paper.PSTrain(); return show(t, err) }},
		{"fairness", fairness}, {"traceov", traceov}, {"gsov", gsov},
	}
	want := map[string]bool{}
	for _, n := range strings.Split(only, ",") {
		if n = strings.ToLower(strings.TrimSpace(n)); n != "" {
			want[n] = true
		}
	}
	selective := len(want) > 0
	ran := false
	for _, e := range all {
		if selective && !want[e.name] {
			continue
		}
		if (e.name == "traceov" || e.name == "gsov") && !selective {
			continue // overhead gates only run when asked for
		}
		curExp = e.name
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Println()
		ran = true
		delete(want, e.name)
	}
	if !ran || len(want) > 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", only)
		return 2
	}
	paths := []string{}
	if *jsonOut != "" {
		paths = append(paths, *jsonOut)
	}
	if *benchName != "" {
		paths = append(paths, "BENCH_"+*benchName+".json")
	}
	if len(paths) > 0 {
		// Lead the trajectory with host provenance: perf numbers are only
		// comparable against points from a known machine shape.
		records = append([]benchRecord{{
			Experiment: "meta", Case: "host",
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
		}}, records...)
	}
	for _, path := range paths {
		buf, err := json.MarshalIndent(records, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			return 1
		}
	}
	return exitCode
}

// auditVerdict prints the auditor's verdict; a dirty audit dumps the
// violations and fails the run.
func auditVerdict(c *cepheus.Cluster, label string) {
	if c.Aud == nil {
		return
	}
	fmt.Printf("%s: %s\n", label, c.Aud.Verdict())
	if !c.Aud.Clean() {
		c.Aud.Report(os.Stderr)
		exitCode = 1
	}
}

// instrument enables what the flags ask for on c before its traffic: the
// flight recorder (-trace), the auditor (-audit) and per-group attribution
// (-groups, or -slo), declaring the -slo objective up front so the
// delivery-latency threshold latches on every group's first packet.
func instrument(c *cepheus.Cluster) {
	if *traceOut != "" {
		c.EnableTrace(*traceCap)
	}
	if *auditOn {
		c.EnableAudit()
	}
	if *groupsOn {
		gs := c.EnableGroupStats(0)
		if sloSet {
			gs.SetDefaultObjective(sloObj)
		}
	}
}

// report writes c's trace (-trace; with several runs the last one wins) and
// prints its audit and group verdicts.
func report(c *cepheus.Cluster, label string) error {
	if *traceOut != "" {
		if err := c.WriteTraceFile(*traceOut); err != nil {
			return fmt.Errorf("%s: trace export: %w", label, err)
		}
	}
	auditVerdict(c, label)
	groupVerdict(c, label)
	return nil
}

// groupVerdict prints the per-group attribution table — and, with -slo, the
// burn-rate report — after an experiment that ran with -groups. Any SLO
// breach fails the run.
func groupVerdict(c *cepheus.Cluster, label string) {
	if !*groupsOn {
		return
	}
	reps := c.GroupReports()
	if len(reps) == 0 {
		return
	}
	fmt.Printf("== groups: %s ==\n", label)
	obs.WriteGroupTable(os.Stdout, reps)
	sloVerdict(c, reps, label)
}

// sloVerdict prints the -slo burn-rate report for reps; any breach fails
// the run.
func sloVerdict(c *cepheus.Cluster, reps []obs.GroupReport, label string) {
	if sloSet && obs.WriteSLOReport(os.Stdout, obs.EvalSLOs(reps, c.GroupStats().ObjectiveFor, sloWin)) > 0 {
		fmt.Fprintf(os.Stderr, "%s: SLO %s breached\n", label, sloObj)
		exitCode = 1
	}
}

// runBcast is cepheus-bench's paper.Bcast: it instruments c, drives and
// times one broadcast, records its result for -json, and reports c's trace
// and verdicts.
func runBcast(c *cepheus.Cluster, b amcast.Broadcaster, root, size int, label string) (sim.Time, error) {
	instrument(c)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ev0 := c.EventsRun()
	t0 := time.Now()
	jct, err := c.RunBcastErr(b, root, size)
	wall := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", label, err)
	}
	runtime.ReadMemStats(&m1)
	ev := c.EventsRun() - ev0
	eps := 0.0
	if s := wall.Seconds(); s > 0 {
		eps = float64(ev) / s
	}
	rec := benchRecord{
		Experiment: curExp, Case: label, JCTNs: int64(jct),
		EventsRun: ev, EventsPerSec: eps, Allocs: m1.Mallocs - m0.Mallocs,
	}
	// Per-message latency (first packet emitted to last packet accepted at
	// each receiver), not per-packet transit: packet transit is a constant
	// on an uncongested paced fabric and collapses every percentile to the
	// same value.
	lat, qd := c.MessageLatency(), c.QueueDepth()
	rec.P50LatencyNs, rec.P99LatencyNs, rec.P999LatencyNs = lat.P50, lat.P99, lat.P999
	rec.MaxQueueBytes = qd.Max
	records = append(records, rec)
	return jct, report(c, label)
}

// show prints an experiment's table unless the experiment failed.
func show(t *exp.Table, err error) error {
	if err == nil {
		fmt.Print(t)
	}
	return err
}

// fig14 runs paper.Fig14 under the flags' instrumentation. -series samples
// the three competing flows' DCQCN rates (plus the default queue-depth and
// fabric-counter probes) every 100µs — the data behind the paper's
// rate-convergence figure.
func fig14() error {
	c := paper.NewFig14Cluster()
	instrument(c)
	if *seriesOut != "" {
		c.EnableSeries(0, 0)
	}
	t, _, err := paper.Fig14(c)
	if err != nil {
		return err
	}
	fmt.Print(t)
	if ser := c.Series; ser != nil {
		ser.Stop()
		f, err := os.Create(*seriesOut)
		if err == nil {
			err = ser.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("series export: %w", err)
		}
		fmt.Printf("series: %d samples x %d probes every %v -> %s\n",
			ser.Samples(), len(ser.Names()), time.Duration(ser.Interval()), *seriesOut)
	}
	return report(c, "fig14")
}

func safeguard() error {
	fmt.Println("== §V-D safeguard fallback ==")
	s, err := paper.SafeguardFallback(runBcast)
	if err != nil {
		return err
	}
	fmt.Printf("second registration rejected: %v\n", s.Rejected)
	fmt.Printf("fallback %s delivered 1MB in %v\n", s.Fallback, s.JCT)
	return nil
}

// overheadExp is one paired off/on overhead experiment on the k=8 DCQCN
// workload: 1MB Cepheus multicasts to 65 members of the k=8 fat-tree under
// DCQCN, member 0 the source.
type overheadExp struct {
	title string // table title
	what  string // the switched instrumentation, for the table and the gate
	pairs int    // interleaved off/on iterations
	reps  int    // timed broadcasts per iteration
	nodes []int
	// build returns a fresh cluster with the instrumentation off or on.
	build func(on bool) *cepheus.Cluster
	// check runs on every "on" cluster after its timed region; an error
	// means the instrumentation measured nothing and fails the run.
	check func(c *cepheus.Cluster) error
}

// overheadCluster builds the overhead experiments' k=8 DCQCN fat-tree.
func overheadCluster() *cepheus.Cluster {
	tr := roce.DefaultConfig()
	tr.DCQCN = true
	return cepheus.NewFatTree(8, cepheus.Options{Transport: &tr})
}

// firstHosts returns hosts 0..n-1, the overhead experiments' group.
func firstHosts(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// overhead measures o's events/s cost as the median of per-pair overhead
// ratios over o.pairs interleaved off/on iterations, records the off/on
// rows, and, with -maxover, fails the run above that fraction.
//
// Each iteration times the broadcasts after an untimed warm-up on its
// cluster: the warm-up absorbs one-time cold costs (event-queue and
// port-buffer growth, DCQCN ramp, first touch of recorder rings) that
// otherwise land on the instrumented side — the BENCH_pr8
// "~20%" trace overhead was mostly this artifact — and GC runs before the
// timed region so collection lands outside it on both sides. Pairing
// cancels host steal and thermal drift within each back-to-back pair, and
// the median over pairs discards the ones a GC pause or a noisy-neighbor
// burst did hit; each side's median taken independently (let alone
// best-of) compares different moments of machine state and swings tens of
// points on a shared host.
func overhead(name string, o overheadExp) {
	once := func(on bool) float64 {
		c := o.build(on)
		b, err := c.Broadcaster(cepheus.SchemeCepheus, o.nodes, len(o.nodes))
		if err != nil {
			panic(err)
		}
		bcast := func() {
			if _, err := c.RunBcastErr(b, o.nodes[0], 1<<20); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
		}
		bcast()
		runtime.GC()
		ev0 := c.EventsRun()
		t0 := time.Now()
		for rep := 0; rep < o.reps; rep++ {
			bcast()
		}
		wall := time.Since(t0)
		if on && o.check != nil {
			if err := o.check(c); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return float64(c.EventsRun()-ev0) / wall.Seconds()
	}
	var offs, ons, overs []float64
	for i := 0; i < o.pairs; i++ {
		off, on := once(false), once(true)
		offs, ons = append(offs, off), append(ons, on)
		overs = append(overs, 1-on/off)
	}
	off, on := median(offs), median(ons)
	over := median(overs)
	t := exp.NewTable(fmt.Sprintf("%s (median of %d, interleaved)", o.title, o.pairs),
		o.what, "events/s(M)", "overhead")
	t.Add("off", fmt.Sprintf("%.2f", off/1e6), "-")
	t.Add("on", fmt.Sprintf("%.2f", on/1e6), fmt.Sprintf("%.1f%%", 100*over))
	fmt.Print(t)
	records = append(records,
		benchRecord{Experiment: name, Case: "off", EventsPerSec: off},
		benchRecord{Experiment: name, Case: "on", EventsPerSec: on, OverheadPct: 100 * over})
	if *maxOver > 0 && over > *maxOver {
		fmt.Fprintf(os.Stderr, "%s: %s overhead %.1f%% exceeds the %.0f%% budget\n",
			name, o.what, 100*over, 100**maxOver)
		exitCode = 1
	}
}

// median returns the middle of the samples (sorted copy, upper-middle for
// even counts) — the overhead gates' robust events/s estimator.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// traceov measures the flight recorder's cost, timing one broadcast per iteration.
func traceov() error {
	var lost uint64
	overhead("traceov", overheadExp{
		title: "Trace overhead: k=8 DCQCN workload, flight recorder off vs on",
		what:  "tracing", pairs: 9, reps: 1, nodes: firstHosts(65),
		build: func(on bool) *cepheus.Cluster {
			c := overheadCluster()
			if on {
				c.EnableTrace(1 << 20)
			}
			return c
		},
		check: func(c *cepheus.Cluster) error {
			lost = c.Rec.Lost()
			return nil
		},
	})
	fmt.Printf("events lost by recorder: %d\n", lost)
	return nil
}

// gsov measures group attribution's cost. This is
// attribution's worst case — every delivered packet books into a group cell
// — and three broadcasts are timed: its cost is a few percent at most, and
// a single ~20ms timed region has more scheduler jitter than that.
func gsov() error {
	overhead("gsov", overheadExp{
		title: "Group-attribution overhead: k=8 DCQCN workload, off vs on",
		what:  "attribution", pairs: 9, reps: 3, nodes: firstHosts(65),
		build: func(on bool) *cepheus.Cluster {
			c := overheadCluster()
			if on {
				c.EnableGroupStats(0)
			}
			return c
		},
		check: func(c *cepheus.Cluster) error {
			if n := len(c.GroupReports()); n != 1 {
				return fmt.Errorf("attributed run saw %d groups, want 1 — overhead measured nothing", n)
			}
			return nil
		},
	})
	return nil
}

// fairness runs G concurrent multicast groups over a shared k=8 fat-tree
// (128 hosts) and reports how evenly the fabric splits it: Jain's index and
// the max/min ratio over per-group delivered bytes, and the p99 isolation
// gap (worst group p99 / fleet p99). Group g's members are hosts
// (g + i*16) mod 128 — every group's receivers are spread across all pods,
// so the streams contend on the same core links instead of partitioning the
// tree. Each root streams 128KB messages back to back under DCQCN for a
// fixed 10ms window. One summary record per sweep point carries jain_index /
// maxmin_ratio / p99_isolation_gap; one record per group carries its goodput
// bytes and delivery p99.
func fairness() error {
	t := exp.NewTable("Fairness: concurrent groups on a shared k=8 fat-tree (10ms window, DCQCN)",
		"groups", "jain", "max/min", "fleet p99", "worst p99", "isolation gap")
	for _, G := range []int{8, 16, 32} {
		f := fairnessOne(G)
		t.Add(fmt.Sprint(G),
			fmt.Sprintf("%.4f", f.JainIndex), fmt.Sprintf("%.2fx", f.MaxMinRatio),
			sim.Time(f.FleetP99).String(), sim.Time(f.WorstP99).String(),
			fmt.Sprintf("%.2fx", f.P99IsolationGap))
	}
	fmt.Print(t)
	return nil
}

func fairnessOne(G int) obs.FairnessReport {
	tr := roce.DefaultConfig()
	tr.DCQCN = true
	c := cepheus.NewFatTree(8, cepheus.Options{Transport: &tr})
	gs := c.EnableGroupStats(0)
	if sloSet {
		gs.SetDefaultObjective(sloObj)
	}
	const membersPer = 8
	hosts := c.Hosts()
	stride := hosts / membersPer
	stops := make([]bool, G)
	for g := 0; g < G; g++ {
		members := make([]int, membersPer)
		for i := range members {
			members[i] = (g + i*stride) % hosts
		}
		grp, err := c.NewGroup(members, 0)
		if err != nil {
			panic(err)
		}
		for _, m := range grp.Members[1:] {
			m.QP.OnMessage = func(roce.Message) {}
		}
		qp, stop := grp.Members[0].QP, &stops[g]
		var post func()
		post = func() {
			if !*stop {
				qp.PostSend(128<<10, post)
			}
		}
		post()
	}
	const window = 10 * sim.Millisecond
	c.SettleUntil(window)
	for g := range stops {
		stops[g] = true
	}
	// Drain in-flight messages so the last word on every group is a complete
	// delivery, not a truncated one.
	c.SettleUntil(window + 5*sim.Millisecond)

	reps := c.GroupReports()
	f := obs.Fairness(reps)
	fmt.Printf("== %d concurrent groups ==\n", G)
	obs.WriteGroupTable(os.Stdout, reps)
	for i := range reps {
		r := &reps[i]
		id := int(r.ID())
		records = append(records, benchRecord{
			Experiment: curExp, Case: fmt.Sprintf("G=%d/g%d", G, id),
			GroupID: &id, GoodputBytes: r.DeliveredBytes, P99LatencyNs: r.Latency.P99,
		})
	}
	records = append(records, benchRecord{
		Experiment: curExp, Case: fmt.Sprintf("G=%d", G),
		Groups: G, JainIndex: f.JainIndex, MaxMinRatio: f.MaxMinRatio,
		P99IsolationGap: f.P99IsolationGap,
	})
	sloVerdict(c, reps, fmt.Sprintf("fairness/G=%d", G))
	return f
}
