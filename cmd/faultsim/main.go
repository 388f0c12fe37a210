// faultsim runs scripted and seeded fault scenarios against the Cepheus
// recovery pipeline and prints the timeline: fault transitions, scheme
// switches (native multicast → AMcast fallback → restored native), and the
// fabric/recovery counters the run ends with. Every run is deterministic in
// its seed.
//
// Usage:
//
//	faultsim                          # ToR crash mid-broadcast on the testbed
//	faultsim -scenario linkdown       # ToR→host access link dies mid-broadcast
//	faultsim -scenario chaos -events 8 -seed 3   # seeded fail-stop storm
//	faultsim -soak -episodes 24 -bench BENCH_pr6.json   # gray+fail-stop SLO soak
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	cepheus "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/roce"
	"repro/internal/sim"
	"repro/internal/simnet"
)

var (
	scenario = flag.String("scenario", "crash", "crash|linkdown|chaos")
	seed     = flag.Int64("seed", 1, "simulation seed")
	size     = flag.Int("size", 64<<20, "bytes per broadcast (soak default: 1MiB)")
	bcasts   = flag.Int("bcasts", 4, "broadcasts to complete")
	events   = flag.Int("events", 6, "chaos: fault episodes to inject")
	horizon  = flag.Duration("horizon", 0, "chaos/soak: injection window (0: auto)")
	trace    = flag.String("trace", "", "write a flight-recorder trace (JSONL) to this file")
	tracecap = flag.Int("tracecap", 0, "flight-recorder capacity in events (0: default)")
	audit    = flag.Bool("audit", false, "run the online protocol auditor; violations fail the run")
	soak     = flag.Bool("soak", false, "run the recovery-SLO soak (composed fail-stop + gray episodes)")
	episodes = flag.Int("episodes", 24, "soak: episodes to inject")
	bench    = flag.String("bench", "", "soak: write the per-episode SLO report as a JSON benchmark file")
	groups   = flag.Bool("groups", false, "enable per-group attribution; print the group table at the end of the run")
	slo      = flag.String("slo", "", "with -groups (implied): per-group SLO, p99=<dur>,goodput=<bytes/s>,drops=<frac>[,window=<dur>]; breaches fail the run")
)

// -slo parsed once in main; sloSet gates the evaluation path.
var (
	sloObj obs.SLOObjective
	sloWin obs.SLOWindows
	sloSet bool
)

// groupSetup turns per-group attribution on when -groups (or -slo) asks for
// it, declaring the -slo objective before any traffic. Fallback deliveries
// travel as unicast AMcast sends, so a degraded episode shows up in the group
// table as a delivery gap plus attributed drops, not as fallback goodput.
func groupSetup(c *cepheus.Cluster) {
	if !*groups {
		return
	}
	gs := c.EnableGroupStats(0)
	if sloSet {
		gs.SetDefaultObjective(sloObj)
	}
}

// groupVerdict prints the per-group attribution table — and, with -slo, the
// burn-rate report — at the end of a run. Any SLO breach fails the process.
func groupVerdict(c *cepheus.Cluster) {
	if !*groups {
		return
	}
	fmt.Println("groups:")
	reps := c.GroupReports()
	obs.WriteGroupTable(os.Stdout, reps)
	if sloSet && len(reps) > 0 {
		res := obs.EvalSLOs(reps, c.GroupStats().ObjectiveFor, sloWin)
		if obs.WriteSLOReport(os.Stdout, res) > 0 {
			fmt.Fprintf(os.Stderr, "SLO %s breached\n", sloObj)
			os.Exit(1)
		}
	}
}

func main() {
	flag.Parse()
	if *slo != "" {
		var err error
		if sloObj, sloWin, err = obs.ParseSLO(*slo); err != nil {
			fmt.Fprintf(os.Stderr, "-slo: %v\n", err)
			os.Exit(2)
		}
		sloSet = true
		*groups = true // an SLO is meaningless without attribution
	}
	if *soak {
		runSoak()
		return
	}
	switch *scenario {
	case "crash":
		run(cepheus.NewTestbed(4, cepheus.Options{Seed: *seed}), func(c *cepheus.Cluster, in *fault.Injector) sim.Time {
			// The ToR fail-stops 2ms into the run and restarts 6ms later
			// with its MFT wiped.
			tor := c.Net.Switches[0]
			in.CrashAt(c.Now()+2*sim.Millisecond, tor)
			in.RestartAt(c.Now()+8*sim.Millisecond, tor)
			return 0
		})
	case "linkdown":
		run(cepheus.NewTestbed(4, cepheus.Options{Seed: *seed}), func(c *cepheus.Cluster, in *fault.Injector) sim.Time {
			// The access link of the last member dies mid-broadcast and is
			// replaced 10ms later.
			link := in.HostLink(3)
			in.LinkDownAt(c.Now()+2*sim.Millisecond, link)
			in.LinkUpAt(c.Now()+12*sim.Millisecond, link)
			return 0
		})
	case "chaos":
		run(cepheus.NewLeafSpine(2, 2, 4, cepheus.Options{Seed: *seed}), func(c *cepheus.Cluster, in *fault.Injector) sim.Time {
			// Storm the fabric: leaf↔spine links and the spines themselves.
			h := sim.Time(*horizon)
			if h <= 0 {
				h = 40 * sim.Millisecond
			}
			plan, err := in.Chaos(fault.ChaosConfig{
				Seed: *seed, Horizon: h, Events: *events,
				MinDowntime: 2 * sim.Millisecond, MaxDowntime: 8 * sim.Millisecond,
				Links: trunkLinks(c), Switches: c.Net.Switches[2:], FlapFraction: 0.25,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos config rejected: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("chaos plan (%d episodes):\n", len(plan))
			for _, ev := range plan {
				fmt.Printf("  %v\n", ev)
			}
			// Keep the workload running past the last repair.
			return c.Now() + h + 8*sim.Millisecond
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
}

// trunkLinks returns the leaf-side ports of every leaf↔spine link of a
// two-leaf leaf-spine cluster.
func trunkLinks(c *cepheus.Cluster) []*simnet.Port {
	var links []*simnet.Port
	for _, sw := range c.Net.Switches[:2] {
		for _, pt := range sw.Ports {
			if _, ok := pt.Peer.Dev.(*simnet.Switch); ok {
				links = append(links, pt)
			}
		}
	}
	return links
}

func hostNICs(c *cepheus.Cluster) []*simnet.Port {
	var nics []*simnet.Port
	for _, h := range c.Net.Hosts {
		nics = append(nics, h.NIC)
	}
	return nics
}

// soakSize returns the per-broadcast size for soak modes: 1MiB unless -size
// was given explicitly (64MiB broadcasts would stretch a 24-episode soak
// into minutes of simulated time for no extra coverage).
func soakSize() int {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "size" {
			set = true
		}
	})
	if set {
		return *size
	}
	return 1 << 20
}

// soakTransport is the RoCE config soak runs use: defaults plus exponential
// retransmission backoff, so a link that stays dead or heavily impaired for
// milliseconds decays to slow probing instead of a fixed-period retransmit
// storm.
func soakTransport() *roce.Config {
	cfg := roce.DefaultConfig()
	cfg.RetxBackoff = 2
	cfg.RetxBackoffMax = 8 * sim.Millisecond
	return &cfg
}

func soakHorizon() sim.Time {
	if h := sim.Time(*horizon); h > 0 {
		return h
	}
	h := sim.Time(*episodes) * 5 * sim.Millisecond
	if h < 40*sim.Millisecond {
		h = 40 * sim.Millisecond
	}
	return h
}

// soakConfig assembles the soak's episode schedule parameters.
func soakConfig(c *cepheus.Cluster, h sim.Time) fault.SoakConfig {
	return fault.SoakConfig{
		Seed: *seed, Episodes: *episodes, Horizon: h,
		MinDuration: 2 * sim.Millisecond, MaxDuration: 8 * sim.Millisecond,
		GrayLinks:     append(trunkLinks(c), hostNICs(c)...),
		FailStopLinks: trunkLinks(c),
		Switches:      c.Net.Switches[2:],
	}
}

func printPlan(plan []fault.Episode) {
	fmt.Printf("soak plan (%d episodes):\n", len(plan))
	for _, ep := range plan {
		fmt.Printf("  ep %2d: %-12s %-22s [%v, %v)\n", ep.Index, ep.Kind, ep.Target, ep.Start, ep.End)
	}
}

func printSLO(report *fault.SLOReport) {
	fmt.Println("soak slo:")
	fmt.Println(report.String())
	for _, slo := range report.PerEpisode {
		line := fmt.Sprintf("soak episode %2d %-12s %-22s goodput=%d", slo.Index, slo.Kind, slo.Target, slo.GoodputBytes)
		if slo.Detected {
			line += fmt.Sprintf(" detect=+%d gap=%d restore=%d", int64(slo.DetectLatency), int64(slo.DeliveryGap), int64(slo.TimeToRestore))
		}
		fmt.Println(line)
	}
}

// benchRow is one record of the BENCH JSON report.
type benchRow struct {
	Experiment string `json:"experiment"`
	Case       string `json:"case"`

	Kind    string `json:"kind,omitempty"`
	Target  string `json:"target,omitempty"`
	StartNs int64  `json:"start_ns,omitempty"`
	EndNs   int64  `json:"end_ns,omitempty"`

	Detected        bool  `json:"detected,omitempty"`
	DetectLatencyNs int64 `json:"detect_latency_ns,omitempty"`
	DeliveryGapNs   int64 `json:"delivery_gap_ns,omitempty"`
	TimeToRestoreNs int64 `json:"time_to_restore_ns,omitempty"`
	GoodputBytes    int64 `json:"goodput_bytes,omitempty"`

	Episodes     int   `json:"episodes,omitempty"`
	DetectedN    int   `json:"detected_n,omitempty"`
	RestoredN    int   `json:"restored_n,omitempty"`
	Marks        int   `json:"marks,omitempty"`
	Unattributed int   `json:"unattributed,omitempty"`
	DetectP50Ns  int64 `json:"detect_p50_ns,omitempty"`
	DetectP99Ns  int64 `json:"detect_p99_ns,omitempty"`
	GapP50Ns     int64 `json:"gap_p50_ns,omitempty"`
	GapP99Ns     int64 `json:"gap_p99_ns,omitempty"`
	RestoreP50Ns int64 `json:"restore_p50_ns,omitempty"`
	RestoreP99Ns int64 `json:"restore_p99_ns,omitempty"`

	ImpairDrops    uint64 `json:"impair_drops,omitempty"`
	CorruptDrops   uint64 `json:"corrupt_drops,omitempty"`
	CtrlStormDrops uint64 `json:"ctrl_storm_drops,omitempty"`
	FaultDrops     uint64 `json:"fault_drops,omitempty"`
	AuditClean     bool   `json:"audit_clean,omitempty"`
}

func writeBench(path string, report *fault.SLOReport, m cepheus.Metrics, auditClean bool) {
	rows := make([]benchRow, 0, len(report.PerEpisode)+1)
	for _, slo := range report.PerEpisode {
		rows = append(rows, benchRow{
			Experiment: "chaos-soak", Case: fmt.Sprintf("episode-%02d", slo.Index),
			Kind: string(slo.Kind), Target: slo.Target,
			StartNs: int64(slo.Start), EndNs: int64(slo.End),
			Detected:        slo.Detected,
			DetectLatencyNs: int64(slo.DetectLatency),
			DeliveryGapNs:   int64(slo.DeliveryGap),
			TimeToRestoreNs: int64(slo.TimeToRestore),
			GoodputBytes:    slo.GoodputBytes,
		})
	}
	rows = append(rows, benchRow{
		Experiment: "chaos-soak", Case: "summary",
		Episodes: report.Episodes, DetectedN: report.Detected, RestoredN: report.Restored,
		Marks: report.Marks, Unattributed: report.Unattributed,
		DetectP50Ns: int64(report.DetectP50), DetectP99Ns: int64(report.DetectP99),
		GapP50Ns: int64(report.GapP50), GapP99Ns: int64(report.GapP99),
		RestoreP50Ns: int64(report.RestoreP50), RestoreP99Ns: int64(report.RestoreP99),
		ImpairDrops: m.ImpairDrops, CorruptDrops: m.CorruptDrops,
		CtrlStormDrops: m.CtrlStormDrops, FaultDrops: m.FaultDrops,
		AuditClean: auditClean,
	})
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench encode failed: %v\n", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0644); err != nil {
		fmt.Fprintf(os.Stderr, "bench write failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("bench:    %s (%d rows)\n", path, len(rows))
}

// runSoak is the sequential composed soak: fail-stop and gray episodes
// against the full recovery pipeline, reduced to per-episode recovery SLOs.
func runSoak() {
	c := cepheus.NewLeafSpine(2, 2, 4, cepheus.Options{Seed: *seed, Transport: soakTransport()})
	if *audit {
		c.EnableAudit()
	}
	groupSetup(c)
	sz := soakSize()
	h := soakHorizon()
	fmt.Printf("soak seed=%d episodes=%d horizon=%v size=%dB hosts=%d\n", *seed, *episodes, h, sz, c.Hosts())

	members := make([]int, c.Hosts())
	for i := range members {
		members[i] = i
	}
	rg, err := c.NewResilientGroup(members, 0, cepheus.RecoveryOptions{
		Window:          500 * sim.Microsecond,
		ReprobeInterval: 2 * sim.Millisecond,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "registration failed: %v\n", err)
		os.Exit(1)
	}
	rg.OnEvent = func(ev string) { fmt.Printf("%12v  recovery: %s\n", c.Now(), ev) }

	in := fault.NewInjector(c.Net)
	in.OnEvent = func(ev fault.Event) { fmt.Printf("%12v  fault: %s %s\n", ev.At, ev.Kind, ev.Target) }
	plan, err := in.Soak(soakConfig(c, h))
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak config rejected: %v\n", err)
		os.Exit(2)
	}
	printPlan(plan)

	// Goodput per episode is sampled live at each episode boundary (the
	// flight recorder is a bounded ring, so a long soak's early history is
	// not reliably in it). Fallback QPs created mid-run are enumerated by
	// EachQP at sample time, so degraded-mode delivery counts too.
	sumGoodput := func() uint64 {
		var t uint64
		for _, r := range c.RNICs {
			r.EachQP(func(qp *roce.QP) { t += qp.GoodputBytes })
		}
		return t
	}
	gpStart := make([]uint64, len(plan))
	gpEnd := make([]uint64, len(plan))
	for i := range plan {
		i := i
		c.Net.Eng.Schedule(plan[i].Start, func() { gpStart[i] = sumGoodput() })
		c.Net.Eng.Schedule(plan[i].End, func() { gpEnd[i] = sumGoodput() })
	}

	minRuntime := c.Now() + h + 20*sim.Millisecond
	for i := 0; c.Now() < minRuntime; i++ {
		start := c.Now()
		done := false
		rg.Bcast(0, sz, func() { done = true })
		if err := c.Run(start+60*sim.Second, func() bool { return done }); err != nil {
			fmt.Fprintf(os.Stderr, "broadcast %d wedged: %v (stats=%+v)\n", i, err, rg.Stats)
			os.Exit(1)
		}
	}
	// Let the pipeline settle so the final span gets its restore timestamp.
	settleNative(c, rg)

	var marks []fault.RecoveryMark
	for _, s := range rg.RecoverySpans() {
		marks = append(marks, fault.RecoveryMark{
			Reason: s.Reason, DetectAt: s.DetectAt,
			FirstFallbackAt: s.FirstFallbackAt, RestoreAt: s.RestoreAt,
		})
	}
	report := fault.ComputeSLO(plan, marks)
	for i := range report.PerEpisode {
		report.PerEpisode[i].GoodputBytes = int64(gpEnd[i] - gpStart[i])
	}
	printSLO(report)
	fmt.Printf("final mode: native=%v\n", rg.Native())
	fmt.Printf("recovery: %+v\n", rg.Stats)
	fmt.Printf("fabric:   %s\n", c.Metrics())
	fmt.Printf("faults:   %+v\n", in.Stats)
	groupVerdict(c)

	auditClean := true
	if *audit {
		fmt.Println(c.Aud.Verdict())
		auditClean = c.Aud.Clean()
	}
	if *bench != "" {
		writeBench(*bench, report, c.Metrics(), auditClean)
	}
	if !auditClean {
		c.Aud.Report(os.Stderr)
		os.Exit(1)
	}
}

// run drives resilient broadcasts while the scenario injects faults,
// printing the merged timeline. inject returns a minimum simulation time to
// keep broadcasting until (0: just complete -bcasts broadcasts).
func run(c *cepheus.Cluster, inject func(*cepheus.Cluster, *fault.Injector) sim.Time) {
	fmt.Printf("scenario=%s seed=%d size=%dB bcasts=%d hosts=%d switches=%d\n",
		*scenario, *seed, *size, *bcasts, c.Hosts(), len(c.Net.Switches))
	if *trace != "" {
		c.EnableTrace(*tracecap)
	}
	if *audit {
		c.EnableAudit()
	}
	groupSetup(c)

	members := make([]int, c.Hosts())
	for i := range members {
		members[i] = i
	}
	rg, err := c.NewResilientGroup(members, 0, cepheus.RecoveryOptions{
		Window:          500 * sim.Microsecond,
		ReprobeInterval: 2 * sim.Millisecond,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "registration failed: %v\n", err)
		os.Exit(1)
	}
	rg.OnEvent = func(ev string) { fmt.Printf("%12v  recovery: %s\n", c.Now(), ev) }

	in := fault.NewInjector(c.Net)
	in.OnEvent = func(ev fault.Event) { fmt.Printf("%12v  fault: %s %s\n", ev.At, ev.Kind, ev.Target) }
	minRuntime := inject(c, in)

	for i := 0; i < *bcasts || c.Now() < minRuntime; i++ {
		start := c.Now()
		mode := "native"
		if !rg.Native() {
			mode = "fallback"
		}
		done := false
		rg.Bcast(0, *size, func() { done = true })
		if err := c.Run(start+60*sim.Second, func() bool { return done }); err != nil {
			fmt.Fprintf(os.Stderr, "broadcast %d wedged: %v (stats=%+v)\n", i, err, rg.Stats)
			os.Exit(1)
		}
		fmt.Printf("%12v  bcast %d done: %v (started %s)\n", c.Now(), i, c.Now()-start, mode)
	}
	// Let the recovery pipeline settle (repairs drain, native restored).
	settleNative(c, rg)

	fmt.Printf("\nfinal mode: native=%v\n", rg.Native())
	fmt.Printf("recovery: %+v\n", rg.Stats)
	printRecoverySpans(rg)
	fmt.Printf("fabric:   %s\n", c.Metrics())
	fmt.Printf("faults:   %+v\n", in.Stats)
	fmt.Printf("delivery latency (ns): %s\n", c.DeliveryLatency())
	fmt.Printf("queue depth (bytes):   %s\n", c.QueueDepth())
	groupVerdict(c)
	if *trace != "" {
		if err := c.WriteTraceFile(*trace); err != nil {
			fmt.Fprintf(os.Stderr, "trace export failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace:    %s (%d events, %d lost)\n", *trace, len(c.Rec.Events()), c.Rec.Lost())
	}
	if *audit {
		fmt.Println(c.Aud.Verdict())
		if !c.Aud.Clean() {
			c.Aud.Report(os.Stderr)
			os.Exit(1)
		}
	}
}

// settleNative runs the cluster until the group is back on native multicast
// or 200ms have passed. Either outcome is fine: the caller prints which.
func settleNative(c *cepheus.Cluster, rg *cepheus.ResilientGroup) {
	limit := c.Now() + 200*sim.Millisecond
	_ = c.Run(sim.MaxTime, func() bool { return rg.Native() || c.Now() >= limit })
}

// printRecoverySpans summarizes every degrade episode: when the failure was
// detected, how long until the first AMcast fallback delivery was posted, and
// when native multicast was restored.
func printRecoverySpans(rg *cepheus.ResilientGroup) {
	spans := rg.RecoverySpans()
	fmt.Printf("recovery spans: %d episode(s)\n", len(spans))
	var nRestored int
	var sumFallback, sumDegraded sim.Time
	for i, s := range spans {
		line := fmt.Sprintf("  span %d: detect=%v", i, s.DetectAt)
		if s.FirstFallbackAt >= 0 {
			line += fmt.Sprintf(" first-fallback=+%v", s.FirstFallbackAt-s.DetectAt)
			sumFallback += s.FirstFallbackAt - s.DetectAt
		} else {
			line += " first-fallback=-"
		}
		if s.RestoreAt >= 0 {
			line += fmt.Sprintf(" restore=+%v", s.RestoreAt-s.DetectAt)
			nRestored++
			sumDegraded += s.Degraded()
		} else {
			line += " restore=- (still degraded)"
		}
		fmt.Printf("%s  [%s]\n", line, s.Reason)
	}
	if nRestored > 0 {
		fmt.Printf("  mean: detect->restore %v over %d restored episode(s)\n",
			sumDegraded/sim.Time(nRestored), nRestored)
	}
}
