// Executor introspection for Parallel runs.
//
// The profiler answers the question the scaling sweeps cannot: when a worker
// sweep plateaus, where does the wall-clock go? It splits every worker's time
// into the four phases of a window — merging inbound cross-LP traffic,
// executing events, spinning at the barrier, and parked at the barrier — and
// counts what the executor moved: events per LP, messages per (source,
// destination) LP pair, windows per unit of virtual time.
//
// Everything here is host-side observation. Wall-clock reads happen only in
// executor code (phase bodies, barrier waits, the coordinator's sequential
// section) — never inside simulated state, handlers, or RNG consumption — so
// enabling the profiler cannot perturb the schedule: simulated results and
// flight-recorder traces are byte-identical with profiling on or off, at any
// worker count. The counters the profiler reads (Engine.nRun, outbox lengths)
// are ones the executor maintains anyway. See DESIGN.md §15.
package sim

import "time"

// profBase anchors monotonic wall-clock reads; profNow is the only clock the
// profiler uses, and it is never visible to simulated state.
var profBase = time.Now()

func profNow() int64 { return int64(time.Since(profBase)) }

// phaseNs is one worker's accumulated wall-clock phase breakdown.
type phaseNs struct {
	MergeNs uint64 // merging + injecting inbound cross-LP traffic (incl. min report)
	ExecNs  uint64 // executing events inside windows
	SpinNs  uint64 // barrier wait, spin portion
	ParkNs  uint64 // barrier wait, parked on the wake channel
	Windows uint64 // windows this worker participated in
}

// execProf is the live profiling state hanging off a Parallel. All per-LP and
// per-pair slices are written only by the LP's (or destination's) owning
// worker during a window, or by the coordinator with workers parked — the
// same exclusivity discipline the executor itself relies on — so no
// synchronization is needed beyond the existing window barrier.
type execProf struct {
	windows    uint64 // executed windows
	satWindows uint64 // windows whose start advanced by <= lookahead
	runs       uint64 // Run/RunSerial invocations
	runNs      uint64 // total wall-clock inside run()
	seqNs      uint64 // coordinator barrier-sequential sections (gather aggregation, hooks, transpose)
	advSum     Time   // total virtual-time advance between window starts
	advMax     Time   // largest single advance (idle skip)

	lpEvents    []uint64 // executed events per LP
	lpWindows   []uint64 // windows in which the LP executed >= 1 event
	lpMaxWindow []uint64 // most events any single window executed on the LP

	// traffic counts cross-LP messages merged, row-major [src*nLP+dst].
	// Each cell is written only by the destination's merging worker, so no
	// synchronization is needed; the total is summed at snapshot time.
	traffic []uint64

	inline bool // most recent run degraded to the single-goroutine path
}

func newExecProf(nLP int) *execProf {
	return &execProf{
		lpEvents:    make([]uint64, nLP),
		lpWindows:   make([]uint64, nLP),
		lpMaxWindow: make([]uint64, nLP),
		traffic:     make([]uint64, nLP*nLP),
	}
}

// EnableProfile turns executor introspection on. Call after Finalize and not
// concurrently with Run; enabling is idempotent. Profiling is host-side only
// and cannot change simulated results (see the package comment above). A
// one-LP run executes no windows, so there it is a no-op and ProfileSnapshot
// stays nil.
func (p *Parallel) EnableProfile() {
	if p.prof != nil {
		return
	}
	if !p.finalized {
		panic("sim: EnableProfile before Finalize")
	}
	if len(p.lps) == 1 {
		return
	}
	p.prof = newExecProf(len(p.lps))
	if p.bar != nil {
		p.bar.prof = true
	}
}

// ProfileEnabled reports whether EnableProfile has been called.
func (p *Parallel) ProfileEnabled() bool { return p.prof != nil }

// ResetProfile zeroes every accumulated profiling counter (a no-op when
// profiling is off). Sweeps call it after warmup so the snapshot covers only
// the measured run.
func (p *Parallel) ResetProfile() {
	pr := p.prof
	if pr == nil {
		return
	}
	p.absorbBarrierProf()
	for i := range p.wstate {
		p.wstate[i].prof = phaseNs{}
	}
	*pr = *newExecProf(len(p.lps))
}

// absorbBarrierProf transfers the barrier's spin/park accumulators into the
// per-worker scratch (worker w's barrier slot is w-1; the coordinator's wait
// is gather time). Called with no window in flight: at snapshots and at pool
// shutdown, both of which the caller sequences against Run.
func (p *Parallel) absorbBarrierProf() {
	b := p.bar
	if b == nil || p.wstate == nil {
		return
	}
	p.wstate[0].prof.SpinNs += b.coordSpinNs
	p.wstate[0].prof.ParkNs += b.coordParkNs
	b.coordSpinNs, b.coordParkNs = 0, 0
	for i := range b.workers {
		spin, park := b.workers[i].spinNs.Swap(0), b.workers[i].parkNs.Swap(0)
		if i+1 < len(p.wstate) {
			p.wstate[i+1].prof.SpinNs += spin
			p.wstate[i+1].prof.ParkNs += park
		}
	}
}

// WorkerPhase is one worker's wall-clock phase breakdown, in nanoseconds.
// SeqNs is nonzero only for worker 0 (the coordinator): the barrier-
// sequential sections — next-window aggregation, barrier hooks (trace
// drains), the caller's predicate, and the outbox transpose — that every
// other worker's Spin/Park time is spent waiting out.
type WorkerPhase struct {
	Worker  int    `json:"worker"`
	LPs     int    `json:"lps"`
	Windows uint64 `json:"windows"`
	MergeNs uint64 `json:"merge_ns"`
	ExecNs  uint64 `json:"exec_ns"`
	SpinNs  uint64 `json:"spin_ns"`
	ParkNs  uint64 `json:"park_ns"`
	SeqNs   uint64 `json:"seq_ns,omitempty"`
}

// ExecStats is a snapshot of raw executor introspection counters, the input
// to the obs layer's derived report. Slices are copies; the snapshot does not
// alias live profiler state.
type ExecStats struct {
	Workers   int  `json:"workers"`
	LPs       int  `json:"lps"`
	Lookahead Time `json:"lookahead_ns"`
	Inline    bool `json:"inline"` // degraded to the single-goroutine path (GOMAXPROCS=1 or workers=1)

	Runs             uint64 `json:"runs"`
	RunNs            uint64 `json:"run_ns"`
	Windows          uint64 `json:"windows"`
	SaturatedWindows uint64 `json:"saturated_windows"` // window starts advancing <= lookahead
	VirtualAdvance   Time   `json:"virtual_advance_ns"`
	MaxWindowAdvance Time   `json:"max_window_advance_ns"`

	Phases []WorkerPhase `json:"phases"`

	LPWorker    []int     `json:"lp_worker"`     // LP -> executing worker
	LPWeights   []float64 `json:"lp_weights"`    // LPT weights (nil: uniform)
	LPEvents    []uint64  `json:"lp_events"`     // executed events per LP
	LPWindows   []uint64  `json:"lp_windows"`    // windows with >= 1 event per LP
	LPMaxWindow []uint64  `json:"lp_max_window"` // largest single-window event burst per LP

	CrossMsgs uint64   `json:"cross_msgs"`
	Traffic   []uint64 `json:"traffic"` // row-major [src*LPs+dst] cross-LP messages
}

// ProfileSnapshot copies the accumulated profiling counters into an
// ExecStats. Call between runs (never concurrently with Run); returns nil
// when profiling is off.
func (p *Parallel) ProfileSnapshot() *ExecStats {
	pr := p.prof
	if pr == nil {
		return nil
	}
	p.absorbBarrierProf()
	n := len(p.lps)
	st := &ExecStats{
		Workers:          p.workers,
		LPs:              n,
		Lookahead:        p.lookahead,
		Inline:           pr.inline,
		Runs:             pr.runs,
		RunNs:            pr.runNs,
		Windows:          pr.windows,
		SaturatedWindows: pr.satWindows,
		VirtualAdvance:   pr.advSum,
		MaxWindowAdvance: pr.advMax,
		LPEvents:         append([]uint64(nil), pr.lpEvents...),
		LPWindows:        append([]uint64(nil), pr.lpWindows...),
		LPMaxWindow:      append([]uint64(nil), pr.lpMaxWindow...),
		Traffic:          append([]uint64(nil), pr.traffic...),
		LPWeights:        append([]float64(nil), p.weights...),
	}
	for _, t := range st.Traffic {
		st.CrossMsgs += t
	}
	st.LPWorker = make([]int, n)
	if p.plan != nil {
		for w, lps := range p.plan {
			for _, lp := range lps {
				st.LPWorker[lp] = w
			}
		}
		for w := range p.wstate {
			ws := &p.wstate[w]
			ph := WorkerPhase{
				Worker:  w,
				LPs:     len(p.plan[w]),
				Windows: ws.prof.Windows,
				MergeNs: ws.prof.MergeNs,
				ExecNs:  ws.prof.ExecNs,
				SpinNs:  ws.prof.SpinNs,
				ParkNs:  ws.prof.ParkNs,
			}
			if w == 0 {
				ph.SeqNs = pr.seqNs
			}
			st.Phases = append(st.Phases, ph)
		}
	}
	return st
}
