package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// The soak harness composes fail-stop and gray episodes into one seeded
// schedule, then reduces the run's recovery spans and trace into a
// per-episode SLO report: how fast each fault was detected, how long
// delivery was degraded, and how long until native service was restored.
// Plan generation draws only from the config's own RNG, so the same config
// always yields the same schedule — the run's SLOs differ only if the
// system under test behaves differently.

// EpisodeKind classifies a planned soak episode.
type EpisodeKind string

// The soak episode kinds, fail-stop first, then the gray impairments.
const (
	EpLinkDown    EpisodeKind = "link-down"
	EpSwitchCrash EpisodeKind = "switch-crash"
	EpLoss        EpisodeKind = "loss"
	EpBurstLoss   EpisodeKind = "burst-loss"
	EpCorrupt     EpisodeKind = "corrupt"
	EpBandwidth   EpisodeKind = "bandwidth"
	EpLatency     EpisodeKind = "latency"
	EpCtrlStorm   EpisodeKind = "ctrl-storm"
)

var grayKinds = []EpisodeKind{EpLoss, EpBurstLoss, EpCorrupt, EpBandwidth, EpLatency, EpCtrlStorm}

// Episode is one planned fault interval.
type Episode struct {
	Index  int
	Kind   EpisodeKind
	Target string
	Start  sim.Time
	End    sim.Time

	// Impair is the installed impairment for gray kinds (zero for fail-stop).
	Impair simnet.Impairment
}

// SoakConfig parameterizes a soak schedule. Zero intensity bounds pick
// defaults; candidate slices select which elements each episode class may
// target.
type SoakConfig struct {
	Seed     int64
	Episodes int
	Horizon  sim.Time

	// MinDuration/MaxDuration bound each episode's length. MaxDuration <=
	// MinDuration pins the length at MinDuration.
	MinDuration sim.Time
	MaxDuration sim.Time

	// FailStopFraction is the fraction of episodes injected as fail-stop
	// (link-down or switch-crash); the rest are gray. Defaults to 0.4 when
	// both fail-stop and gray candidates exist.
	FailStopFraction float64

	// Candidates. Gray episodes impair GrayLinks; fail-stop episodes pick
	// from FailStopLinks and Switches.
	FailStopLinks []*simnet.Port
	Switches      []*simnet.Switch
	GrayLinks     []*simnet.Port

	// Gray intensity bounds; each episode draws its intensity uniformly up
	// to the bound. Zero selects the default in parentheses.
	MaxLossRate          float64  // iid/burst loss ceiling (0.3)
	MaxCorruptRate       float64  // CRC-corruption ceiling (0.05)
	MaxCtrlLossRate      float64  // control-storm ceiling (0.5)
	MaxExtraLatency      sim.Time // added latency ceiling (20µs)
	MinBandwidthFraction float64  // worst-case line-rate fraction (0.1)
}

func (cfg *SoakConfig) withDefaults() SoakConfig {
	c := *cfg
	if c.MaxLossRate == 0 {
		c.MaxLossRate = 0.3
	}
	if c.MaxCorruptRate == 0 {
		c.MaxCorruptRate = 0.05
	}
	if c.MaxCtrlLossRate == 0 {
		c.MaxCtrlLossRate = 0.5
	}
	if c.MaxExtraLatency == 0 {
		c.MaxExtraLatency = 20 * sim.Microsecond
	}
	if c.MinBandwidthFraction == 0 {
		c.MinBandwidthFraction = 0.1
	}
	if c.FailStopFraction == 0 && len(c.FailStopLinks)+len(c.Switches) > 0 && len(c.GrayLinks) > 0 {
		c.FailStopFraction = 0.4
	}
	if len(c.GrayLinks) == 0 {
		c.FailStopFraction = 1
	}
	if len(c.FailStopLinks)+len(c.Switches) == 0 {
		c.FailStopFraction = 0
	}
	return c
}

// Validate rejects configs that cannot produce a meaningful schedule.
func (cfg *SoakConfig) Validate() error {
	if cfg.Episodes <= 0 {
		return fmt.Errorf("soak: Episodes must be positive, got %d", cfg.Episodes)
	}
	if cfg.Horizon <= 0 {
		return fmt.Errorf("soak: Horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.MinDuration < 0 || cfg.MaxDuration < 0 {
		return fmt.Errorf("soak: durations must be non-negative, got min=%v max=%v", cfg.MinDuration, cfg.MaxDuration)
	}
	if cfg.FailStopFraction < 0 || cfg.FailStopFraction > 1 {
		return fmt.Errorf("soak: FailStopFraction must be in [0,1], got %g", cfg.FailStopFraction)
	}
	if cfg.MaxLossRate < 0 || cfg.MaxCorruptRate < 0 || cfg.MaxCtrlLossRate < 0 ||
		cfg.MaxExtraLatency < 0 || cfg.MinBandwidthFraction < 0 || cfg.MinBandwidthFraction > 1 {
		return errors.New("soak: impairment bounds must be non-negative (bandwidth fraction in [0,1])")
	}
	if len(cfg.FailStopLinks)+len(cfg.Switches)+len(cfg.GrayLinks) == 0 {
		return errors.New("soak: no candidate links or switches")
	}
	return nil
}

// grayImpair draws one gray episode's impairment from the config bounds.
func grayImpair(kind EpisodeKind, cfg *SoakConfig, rng *rand.Rand) simnet.Impairment {
	frac := func() float64 { return 0.2 + 0.8*rng.Float64() } // avoid near-zero no-op episodes
	var imp simnet.Impairment
	switch kind {
	case EpLoss:
		imp.LossRate = cfg.MaxLossRate * frac()
	case EpBurstLoss:
		imp.Burst = simnet.GilbertElliott{
			PGoodBad: 0.01 + 0.04*rng.Float64(),
			PBadGood: 0.1 + 0.2*rng.Float64(),
			LossBad:  cfg.MaxLossRate * frac(),
		}
	case EpCorrupt:
		imp.CorruptRate = cfg.MaxCorruptRate * frac()
	case EpBandwidth:
		imp.BandwidthFraction = cfg.MinBandwidthFraction + (1-cfg.MinBandwidthFraction)*0.5*rng.Float64()
	case EpLatency:
		imp.ExtraLatency = sim.Time(float64(cfg.MaxExtraLatency) * frac())
		imp.Jitter = imp.ExtraLatency / 2
	case EpCtrlStorm:
		imp.CtrlLossRate = cfg.MaxCtrlLossRate * frac()
	}
	return imp
}

// Soak plans and schedules a composed fail-stop + gray episode sequence,
// returning the plan sorted by start time. Fail-stop episodes use the
// hold-counted DownEpisode/CrashEpisode; gray episodes use DegradeEpisode.
func (in *Injector) Soak(cfg SoakConfig) ([]Episode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	var base sim.Time
	if in.eng != nil {
		base = in.eng.Now()
	}
	durFor := func() sim.Time {
		if c.MaxDuration <= c.MinDuration {
			return c.MinDuration
		}
		return c.MinDuration + sim.Time(rng.Int63n(int64(c.MaxDuration-c.MinDuration)))
	}
	plan := make([]Episode, 0, c.Episodes)
	for i := 0; i < c.Episodes; i++ {
		at := base + sim.Time(rng.Int63n(int64(c.Horizon)))
		dur := durFor()
		ep := Episode{Start: at, End: at + dur}
		if rng.Float64() < c.FailStopFraction {
			k := rng.Intn(len(c.FailStopLinks) + len(c.Switches))
			if k < len(c.FailStopLinks) {
				ep.Kind, ep.Target = EpLinkDown, linkName(c.FailStopLinks[k])
			} else {
				ep.Kind, ep.Target = EpSwitchCrash, c.Switches[k-len(c.FailStopLinks)].Name
			}
		} else {
			kind := grayKinds[rng.Intn(len(grayKinds))]
			pt := c.GrayLinks[rng.Intn(len(c.GrayLinks))]
			ep.Kind, ep.Target = kind, linkName(pt)
			ep.Impair = grayImpair(kind, &c, rng)
		}
		plan = append(plan, ep)
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].Start < plan[j].Start })
	for i := range plan {
		plan[i].Index = i
	}
	// Schedule after sorting so episode indices (and derived impairment
	// seeds) are stable properties of the plan, not of RNG draw order.
	for i := range plan {
		ep := &plan[i]
		switch ep.Kind {
		case EpLinkDown:
			in.DownEpisode(in.portByLink(c.FailStopLinks, ep.Target), ep.Start, ep.End)
		case EpSwitchCrash:
			in.CrashEpisode(in.switchByName(c.Switches, ep.Target), ep.Start, ep.End)
		default:
			seed := c.Seed ^ (int64(i+1) * peerSeedMix)
			in.DegradeEpisode(in.portByLink(c.GrayLinks, ep.Target), ep.Start, ep.End, ep.Impair, seed)
		}
	}
	return plan, nil
}

func (in *Injector) portByLink(cands []*simnet.Port, name string) *simnet.Port {
	for _, pt := range cands {
		if linkName(pt) == name {
			return pt
		}
	}
	panic("soak: unknown link " + name)
}

func (in *Injector) switchByName(cands []*simnet.Switch, name string) *simnet.Switch {
	for _, sw := range cands {
		if sw.Name == name {
			return sw
		}
	}
	panic("soak: unknown switch " + name)
}

// RecoveryMark is one detect → fallback → restore cycle observed by the
// recovery pipeline, in the shape the root package's RecoverySpan exports
// (fault cannot import the root package, so the runner copies spans across).
// Negative times mean "never happened".
type RecoveryMark struct {
	Reason          string
	DetectAt        sim.Time
	FirstFallbackAt sim.Time
	RestoreAt       sim.Time
}

// EpisodeSLO is one episode's recovery outcome.
type EpisodeSLO struct {
	Episode
	Detected bool

	// DetectLatency is detection time minus episode start; DeliveryGap is
	// first-fallback minus detection (how long delivery ran un-degraded-to);
	// TimeToRestore is restore minus episode end (negative components mean
	// the stage never happened and are excluded from percentiles).
	DetectLatency sim.Time
	DeliveryGap   sim.Time
	TimeToRestore sim.Time

	// GoodputBytes is the payload delivered during the episode window.
	// ComputeSLO leaves it 0; the soak driver fills it from QP counters.
	GoodputBytes int64
}

// SLOReport aggregates a soak run.
type SLOReport struct {
	Episodes     int
	Detected     int
	Restored     int
	Marks        int
	Unattributed int // recovery marks not matched to any planned episode

	DetectP50, DetectP99   sim.Time
	GapP50, GapP99         sim.Time
	RestoreP50, RestoreP99 sim.Time

	PerEpisode []EpisodeSLO
}

// String renders the deterministic summary line set used by CI digest
// comparison (times as raw nanosecond integers so formatting can never
// drift between platforms).
func (r *SLOReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "episodes=%d detected=%d restored=%d marks=%d unattributed=%d\n",
		r.Episodes, r.Detected, r.Restored, r.Marks, r.Unattributed)
	fmt.Fprintf(&b, "detect_ns p50=%d p99=%d\n", int64(r.DetectP50), int64(r.DetectP99))
	fmt.Fprintf(&b, "gap_ns p50=%d p99=%d\n", int64(r.GapP50), int64(r.GapP99))
	fmt.Fprintf(&b, "restore_ns p50=%d p99=%d", int64(r.RestoreP50), int64(r.RestoreP99))
	return b.String()
}

// attributionGrace is how far past an episode's end a detection may land and
// still be attributed to it (detection of a fault that ended is legitimate:
// the damage — lost packets, stalled QPs — outlives the fault condition).
const attributionGrace = 25 * sim.Millisecond

// ComputeSLO attributes recovery marks to planned episodes and reduces them
// to per-episode and aggregate SLOs. Attribution is by time: each mark goes
// to the latest not-yet-matched episode whose [Start, End+grace] window
// contains the detection time. Marks that match nothing are counted, not
// dropped — an unattributed detection is itself a signal (e.g. a safeguard
// trip caused by collateral congestion).
func ComputeSLO(plan []Episode, marks []RecoveryMark) *SLOReport {
	r := &SLOReport{Episodes: len(plan), Marks: len(marks)}
	r.PerEpisode = make([]EpisodeSLO, len(plan))
	for i, ep := range plan {
		r.PerEpisode[i] = EpisodeSLO{Episode: ep}
	}
	matched := make([]bool, len(plan))
	var detects, gaps, restores []sim.Time
	for _, m := range marks {
		best := -1
		for i, ep := range plan {
			if matched[i] || m.DetectAt < ep.Start || m.DetectAt > ep.End+attributionGrace {
				continue
			}
			if best < 0 || plan[i].Start >= plan[best].Start {
				best = i
			}
		}
		if best < 0 {
			r.Unattributed++
			continue
		}
		matched[best] = true
		slo := &r.PerEpisode[best]
		slo.Detected = true
		r.Detected++
		slo.DetectLatency = m.DetectAt - slo.Start
		detects = append(detects, slo.DetectLatency)
		if m.FirstFallbackAt >= 0 {
			slo.DeliveryGap = m.FirstFallbackAt - m.DetectAt
			gaps = append(gaps, slo.DeliveryGap)
		} else {
			slo.DeliveryGap = -1
		}
		if m.RestoreAt >= 0 {
			r.Restored++
			slo.TimeToRestore = m.RestoreAt - slo.End
			restores = append(restores, slo.TimeToRestore)
		} else {
			slo.TimeToRestore = -1
		}
	}
	r.DetectP50, r.DetectP99 = obs.Quantile(detects, 0.50), obs.Quantile(detects, 0.99)
	r.GapP50, r.GapP99 = obs.Quantile(gaps, 0.50), obs.Quantile(gaps, 0.99)
	r.RestoreP50, r.RestoreP99 = obs.Quantile(restores, 0.50), obs.Quantile(restores, 0.99)
	return r
}
