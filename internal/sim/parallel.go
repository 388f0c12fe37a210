// Conservative parallel discrete-event execution.
//
// A Parallel run partitions the simulated world into logical processes
// (LPs), each an ordinary single-threaded Engine with its own calendar
// queue, clock, and RNG stream. Execution proceeds in time windows bounded by the
// lookahead — the minimum latency of any cross-LP interaction (in the
// network model, the smallest propagation delay of a link whose endpoints
// live in different LPs). Within one window every LP can run independently:
// conservative synchronization guarantees that no event executed in the
// window can cause another LP to receive anything earlier than the window's
// end, so no LP ever has to roll back.
//
// Cross-LP messages travel through double-buffered per-(source, destination)
// outboxes: during window N the source's worker appends to the parity-N%2
// buffer, and at the start of window N+1 each destination's own worker
// schedules the parity-N%2 messages aimed at it on its calendar queue,
// source by source in ascending LP order and each box in send order. Each
// message takes the destination's next sequence number, so the queue's
// (timestamp, sequence) order is the canonical (timestamp, source LP, send
// order) total order with no sort. The merge of window N's traffic overlaps
// window N+1's writes into the opposite parity, so one barrier per window
// suffices and the entire drain phase parallelizes across workers. Because
// the partition, the per-LP RNG streams, and the merge order are all
// functions of the topology and seed alone — never of the worker count or
// wall-clock interleaving — a run produces byte-identical results whether it
// is driven by one worker, eight, or RunSerial on the coordinator itself.
// See DESIGN.md §9 and §14.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// crossMsg is one cross-LP event hand-off: the scheduled handler and its
// absolute timestamp, buffered until the next window's merge.
type crossMsg struct {
	at  Time
	h   Handler
	arg any
}

// outbox is the single-producer buffer of messages from one source LP to one
// destination LP within one parity. The source's worker appends during a
// window; the destination's worker drains the opposite parity at the start
// of the next window. The window barrier provides the happens-before edge,
// so no per-message synchronization is needed.
type outbox []crossMsg

// workerScratch is one worker's private window state: the end-of-window
// report the coordinator aggregates instead of rescanning every LP, and the
// worker's phase timings. The trailing pad keeps adjacent workers' hot
// fields off a shared cache line.
type workerScratch struct {
	// End-of-window report: earliest pending timestamp across this worker's
	// LPs (queues and freshly written outboxes) and whether any of its LPs
	// executed an event. Written by the worker, read by the coordinator at
	// the barrier.
	min Time
	has bool
	ran bool

	// prof accumulates this worker's wall-clock phase breakdown when
	// executor profiling is enabled (profile.go). Written only by the
	// owning worker during windows; read by the coordinator at snapshots.
	prof phaseNs

	_ [64]byte
}

// workerPark is one worker's parking slot of the phase barrier: a flag the
// releaser swaps to decide whether a wake token is owed, and a buffered
// channel carrying at most that one token.
type workerPark struct {
	parked atomic.Int32
	wake   chan struct{}

	// spinNs/parkNs split this worker's barrier wait when profiling is on
	// (phaseBarrier.prof): written only by the owning worker inside
	// awaitGen, harvested by Parallel.absorbBarrierProf. Atomic because the
	// worker's wait for the window after a Run's last one — spin, then park
	// — overlaps a snapshot taken once Run returns.
	spinNs atomic.Uint64
	parkNs atomic.Uint64
	_      [24]byte
}

// phaseBarrier is a sense-reversing spin-then-park barrier. The coordinator
// releases a window by bumping gen; workers spin on gen briefly and park on
// their wake channel only if the release does not arrive. Arrival runs in
// the other direction: workers count into arrived, and the last one wakes
// the coordinator if it parked. The parked-flag Swap protocol makes the
// hand-off lost-wakeup-free: whoever swaps the flag from 1 owns the token.
// Two channel operations per worker per window (the old handshake) become
// zero in the spin path and at most one park/wake pair otherwise.
type phaseBarrier struct {
	gen     atomic.Uint64
	arrived atomic.Int32
	quit    atomic.Bool
	nw      int32 // parked worker goroutines (workers 1..n-1; 0 is the coordinator)
	spins   int

	coordParked atomic.Int32
	coordWake   chan struct{}

	// prof turns on wall-clock accounting of barrier waits (profile.go):
	// workers split their awaitGen time into spin and park, the coordinator
	// its gather time likewise.
	prof        bool
	coordSpinNs uint64
	coordParkNs uint64

	workers []workerPark
}

// release opens the next window: reset the arrival count, publish the new
// generation, and hand a wake token to every worker that already parked.
func (b *phaseBarrier) release() {
	b.arrived.Store(0)
	b.gen.Add(1)
	for i := range b.workers {
		if b.workers[i].parked.Swap(0) == 1 {
			b.workers[i].wake <- struct{}{}
		}
	}
}

// awaitGen blocks worker w until generation want is released, spinning first
// and parking only if the release is slow. Returns false when the pool is
// shutting down. With profiling on, the wait is split into its spin and park
// portions (wall-clock reads happen only while the worker is waiting, so
// they cannot shift any simulated event).
func (b *phaseBarrier) awaitGen(w int, want uint64) bool {
	var t0 int64
	if b.prof {
		t0 = profNow()
	}
	for i := 0; i < b.spins; i++ {
		if b.gen.Load() >= want {
			if b.prof {
				b.workers[w-1].spinNs.Add(uint64(profNow() - t0))
			}
			return !b.quit.Load()
		}
	}
	wp := &b.workers[w-1]
	var t1 int64
	if b.prof {
		t1 = profNow()
		wp.spinNs.Add(uint64(t1 - t0))
	}
	for b.gen.Load() < want {
		wp.parked.Store(1)
		if b.gen.Load() >= want {
			if wp.parked.Swap(0) == 0 {
				// The releaser claimed the flag first and owes a token;
				// consume it so it cannot leak into the next window.
				<-wp.wake
			}
			break
		}
		<-wp.wake
	}
	if b.prof {
		wp.parkNs.Add(uint64(profNow() - t1))
	}
	return !b.quit.Load()
}

// arrive reports one worker's window as finished; the last arrival wakes the
// coordinator if it parked.
func (b *phaseBarrier) arrive() {
	if b.arrived.Add(1) == b.nw {
		if b.coordParked.Swap(0) == 1 {
			b.coordWake <- struct{}{}
		}
	}
}

// gather blocks the coordinator until every worker has arrived. Profiled
// like awaitGen: the coordinator's wait splits into spin and park.
func (b *phaseBarrier) gather() {
	var t0 int64
	if b.prof {
		t0 = profNow()
	}
	for i := 0; i < b.spins; i++ {
		if b.arrived.Load() == b.nw {
			if b.prof {
				b.coordSpinNs += uint64(profNow() - t0)
			}
			return
		}
	}
	var t1 int64
	if b.prof {
		t1 = profNow()
		b.coordSpinNs += uint64(t1 - t0)
	}
	defer func() {
		if b.prof {
			b.coordParkNs += uint64(profNow() - t1)
		}
	}()
	for b.arrived.Load() < b.nw {
		b.coordParked.Store(1)
		if b.arrived.Load() == b.nw {
			if b.coordParked.Swap(0) == 0 {
				<-b.coordWake
			}
			return
		}
		<-b.coordWake
	}
}

// barrierSpins sizes the spin phase. On a single-CPU box spinning can only
// delay the goroutine that would make progress, so workers park immediately;
// with more workers than CPUs a short spin bounds the waste.
func barrierSpins(workers int) int {
	procs := runtime.GOMAXPROCS(0)
	switch {
	case procs <= 1:
		return 0
	case workers > procs:
		return 1_000
	default:
		return 20_000
	}
}

// Parallel coordinates a set of LP engines through lookahead-bounded
// windows. Construct with NewParallel, create engines with AddLP, then call
// Finalize once before the first event is scheduled across LPs.
type Parallel struct {
	seed      int64
	workers   int
	lookahead Time
	lps       []*Engine
	floor     Time // start of the most recently executed window
	finalized bool

	// wp is the write parity of the window currently (or most recently)
	// executing: ScheduleRemote appends into out[wp], while merges drain
	// out[wp^1]. Only the coordinator flips it, at the barrier.
	wp int

	// phaseEnd is the current window's exclusive end, published by the
	// coordinator before releasing workers.
	phaseEnd Time

	// incoming[d] is the coordinator's transpose of the source dirty lists:
	// which sources have messages for destination d this merge, in ascending
	// source order. touched lists the destinations with any, so clearing is
	// proportional to traffic, not to LPs.
	incoming [][]int32
	touched  []int32

	// weights biases the LP->worker assignment (SetLPWeights); nil means
	// uniform.
	weights []float64

	// Execution plan and per-worker state, built lazily on the first run.
	// plan[w] lists the LPs worker w merges and executes each window, fixed
	// by weighted longest-processing-time assignment. The coordinator is
	// worker 0; goroutines exist only for workers 1..n-1.
	plan   [][]int
	wstate []workerScratch

	started bool
	bar     *phaseBarrier
	wg      sync.WaitGroup

	// barrier, when set, runs on the coordinator at every window barrier
	// where state changed (all workers parked). The observability layer
	// hooks it to drain per-LP trace shards; any coordinator-side
	// bookkeeping that must see a consistent cross-LP snapshot can ride on
	// it.
	barrier func()

	// prof, when set, accumulates executor introspection (profile.go):
	// phase timings, per-LP loads, cross-LP traffic. Host-side only —
	// never read by simulated state.
	prof *execProf
}

// NewParallel creates an empty run. workers is the number of goroutines
// that execute windows (clamped to [1, NumLPs] at run time); it has no
// effect on simulated results, only on wall-clock speed.
func NewParallel(seed int64, workers int) *Parallel {
	if workers < 1 {
		workers = 1
	}
	return &Parallel{seed: seed, workers: workers}
}

// lpSeedStride spaces per-LP RNG seeds (the 64-bit golden ratio, reinterpreted
// as a signed constant so seed arithmetic wraps instead of overflowing).
const lpSeedStride = int64(-7046029254386353131)

// AddLP creates the next logical process. LP 0's RNG stream is seeded
// exactly like New(seed), so a single-LP parallel run consumes randomness
// identically to a standalone sequential engine; further LPs derive
// statistically independent streams from the same seed. The partition must
// be a pure function of the topology — never of the worker count — or
// determinism across worker counts is lost.
func (p *Parallel) AddLP() *Engine {
	if p.finalized {
		panic("sim: AddLP after Finalize")
	}
	lp := int32(len(p.lps))
	e := New(p.seed + int64(lp)*lpSeedStride)
	e.par = p
	e.lp = lp
	p.lps = append(p.lps, e)
	return e
}

// Finalize fixes the LP set and the lookahead, sizing every engine's
// outboxes and dirty lists. lookahead is the conservative window length:
// the minimum virtual-time distance of any cross-LP interaction. It must be
// positive when there is more than one LP; a one-LP run has no windows (every
// event is its own barrier, see Run) and ignores it.
func (p *Parallel) Finalize(lookahead Time) {
	if p.finalized {
		panic("sim: Finalize called twice")
	}
	if lookahead <= 0 && len(p.lps) > 1 {
		panic("sim: Finalize of a multi-LP run needs a positive lookahead")
	}
	p.finalized = true
	p.lookahead = lookahead
	n := len(p.lps)
	for _, e := range p.lps {
		for par := 0; par < 2; par++ {
			e.out[par] = make([]outbox, n)
			e.dirty[par] = make([]int32, 0, n)
			e.outMin[par] = MaxTime
		}
	}
	p.incoming = make([][]int32, n)
	for i := range p.incoming {
		p.incoming[i] = make([]int32, 0, n)
	}
	p.touched = make([]int32, 0, n)
}

// NumLPs returns the partition size.
func (p *Parallel) NumLPs() int { return len(p.lps) }

// LP returns the i-th logical process engine.
func (p *Parallel) LP(i int) *Engine { return p.lps[i] }

// Lookahead returns the window bound fixed by Finalize.
func (p *Parallel) Lookahead() Time { return p.lookahead }

// SetLPWeights biases the static LP->worker assignment by expected load
// (e.g. devices or ports per LP): workers receive LPs by weighted
// longest-processing-time scheduling instead of round-robin striding. Call
// before the first Run; w[i] is LP i's relative weight. The assignment
// affects wall-clock balance only — never simulated results, which are fixed
// by the partition and seed alone.
func (p *Parallel) SetLPWeights(w []float64) {
	if p.plan != nil {
		panic("sim: SetLPWeights after workers started")
	}
	if len(w) != len(p.lps) {
		panic(fmt.Sprintf("sim: SetLPWeights got %d weights for %d LPs", len(w), len(p.lps)))
	}
	p.weights = append([]float64(nil), w...)
}

// buildPlan assigns LPs to w workers. With weights set, LPs are sorted by
// (weight desc, LP asc) and greedily placed on the least-loaded worker
// (lowest index on ties) — deterministic LPT. Without weights it keeps the
// classic stride lp % w.
func (p *Parallel) buildPlan(w int) [][]int {
	plan := make([][]int, w)
	if p.weights == nil {
		for lp := range p.lps {
			plan[lp%w] = append(plan[lp%w], lp)
		}
		return plan
	}
	order := make([]int, len(p.lps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := p.weights[order[a]], p.weights[order[b]]
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	load := make([]float64, w)
	for _, lp := range order {
		best := 0
		for i := 1; i < w; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		plan[best] = append(plan[best], lp)
		load[best] += p.weights[lp]
	}
	return plan
}

// SetBarrier installs a hook that the coordinator invokes at window barriers
// where simulation state changed, while all workers are parked — the hook
// may therefore read (and reset) state written by any LP during preceding
// windows without synchronization. A nil f removes the hook.
func (p *Parallel) SetBarrier(f func()) { p.barrier = f }

// Now returns the virtual-time floor: the start of the most recent window,
// every LP's local clock being at or beyond it. On one LP, where every event
// is a barrier, it is that LP's clock.
func (p *Parallel) Now() Time {
	if len(p.lps) == 1 {
		return p.lps[0].now
	}
	return p.floor
}

// EventsRun sums executed events across LPs.
func (p *Parallel) EventsRun() uint64 {
	var n uint64
	for _, e := range p.lps {
		n += e.nRun
	}
	return n
}

// Pending sums scheduled events across LP queues (outboxes are empty between
// runs; the coordinator drains any residue before Run returns).
func (p *Parallel) Pending() int {
	n := 0
	for _, e := range p.lps {
		n += e.Pending()
	}
	return n
}

// transpose turns the per-source dirty lists of one parity into
// per-destination merge work: incoming[d] receives every source with
// messages for d, in ascending source order (sources are scanned in LP
// order), and the scanned dirty lists and outbox minima are reset. It runs
// only on the coordinator, with all workers parked, and costs O(LPs +
// dirty pairs) — not O(LPs^2).
func (p *Parallel) transpose(par int) {
	for _, d := range p.touched {
		p.incoming[d] = p.incoming[d][:0]
	}
	p.touched = p.touched[:0]
	for si, src := range p.lps {
		dl := src.dirty[par]
		if len(dl) == 0 {
			continue
		}
		for _, d := range dl {
			if len(p.incoming[d]) == 0 {
				p.touched = append(p.touched, d)
			}
			p.incoming[d] = append(p.incoming[d], int32(si))
		}
		src.dirty[par] = dl[:0]
		src.outMin[par] = MaxTime
	}
}

// mergeDst schedules destination d's incoming parity-par messages on its
// queue and resets the drained boxes. srcs is in ascending LP order and each
// box in send order, so every message taking d's next sequence number gives
// the canonical (timestamp, source LP, send order) order, and a message tied
// with a local event runs after it when the event was queued first. Callers
// guarantee exclusive access to d and to the listed source boxes: during a
// window that is d's owning worker (each (source box, destination) cell has
// exactly one reader), at exit barriers the coordinator.
func (p *Parallel) mergeDst(d int, srcs []int32, par int) {
	dst := p.lps[d]
	for _, si := range srcs {
		src := p.lps[si]
		box := src.out[par][d]
		if pr := p.prof; pr != nil && len(box) > 0 {
			// Destination d has exactly one merging worker per window, so
			// its traffic row cells are single-writer.
			pr.traffic[int(si)*len(p.lps)+d] += uint64(len(box))
		}
		for mi := range box {
			m := &box[mi]
			dst.ScheduleHandler(m.at, m.h, m.arg)
			*m = crossMsg{} // drop handler/arg refs for the GC
		}
		src.out[par][d] = box[:0]
	}
}

// drainAll serially merges every buffered cross-LP message of both parities
// into its destination. The coordinator calls it at Run entry (to absorb
// remote scheduling done between runs) and before every return, preserving
// the contract that outboxes are empty whenever Run is not executing.
func (p *Parallel) drainAll() {
	for par := 0; par < 2; par++ {
		p.transpose(par)
		for _, d := range p.touched {
			p.mergeDst(int(d), p.incoming[d], par)
		}
	}
}

// mergePhase drains the previous window's traffic aimed at worker w's LPs.
// It runs concurrently with every other worker's mergePhase and runPhase:
// merges read parity wp^1 while runs write parity wp, and each destination
// (and each source box column) has exactly one reading worker.
func (p *Parallel) mergePhase(w int) {
	par := p.wp ^ 1
	for _, d := range p.plan[w] {
		if srcs := p.incoming[d]; len(srcs) > 0 {
			p.mergeDst(d, srcs, par)
		}
	}
}

// runPhase executes one window for each of worker w's LPs and records
// whether any of them ran an event. With profiling on it also attributes the
// executed-event delta to the LP — the raw material of the load-imbalance
// report (each LP's cells are written only by its owning worker).
func (p *Parallel) runPhase(w int, end Time) {
	ran := false
	pr := p.prof
	for _, lp := range p.plan[w] {
		e := p.lps[lp]
		n0 := e.nRun
		e.Run(end-1, nil) // every event strictly before the window end
		if d := e.nRun - n0; d != 0 {
			ran = true
			if pr != nil {
				pr.lpEvents[lp] += d
				pr.lpWindows[lp]++
				if d > pr.lpMaxWindow[lp] {
					pr.lpMaxWindow[lp] = d
				}
			}
		}
	}
	p.wstate[w].ran = ran
}

// minPhase records worker w's earliest pending timestamp: queue minima plus
// the minimum of any cross-LP messages its LPs buffered this window.
// Aggregating these per-worker reports is how the coordinator finds the next
// window's start without rescanning every LP.
func (p *Parallel) minPhase(w int) {
	var m Time
	has := false
	wp := p.wp
	for _, lp := range p.plan[w] {
		e := p.lps[lp]
		if t, ok := e.NextEventTime(); ok && (!has || t < m) {
			m, has = t, true
		}
		if om := e.outMin[wp]; om != MaxTime && (!has || om < m) {
			m, has = om, true
		}
	}
	ws := &p.wstate[w]
	ws.min, ws.has = m, has
}

// phase is one worker's whole window: merge inbound traffic, execute, report.
// With profiling on, the merge and execute+report segments are timed
// (two extra monotonic clock reads per worker-window; simulated state never
// sees them).
func (p *Parallel) phase(w int) {
	end := p.phaseEnd
	pr := p.prof
	if pr == nil {
		p.mergePhase(w)
		p.runPhase(w, end)
		p.minPhase(w)
		return
	}
	t0 := profNow()
	p.mergePhase(w)
	t1 := profNow()
	p.runPhase(w, end)
	p.minPhase(w)
	t2 := profNow()
	ws := &p.wstate[w]
	ws.prof.MergeNs += uint64(t1 - t0)
	ws.prof.ExecNs += uint64(t2 - t1)
	ws.prof.Windows++
}

// scanMin is the full next-event scan, used only on the first window of a
// Run (worker reports are stale or absent there).
func (p *Parallel) scanMin() (Time, bool) {
	var m Time
	ok := false
	for _, e := range p.lps {
		if t, has := e.NextEventTime(); has && (!ok || t < m) {
			m, ok = t, true
		}
		for par := 0; par < 2; par++ {
			if om := e.outMin[par]; om != MaxTime && (!ok || om < m) {
				m, ok = om, true
			}
		}
	}
	return m, ok
}

// gatherMin aggregates the per-worker end-of-window reports: the earliest
// pending timestamp anywhere and whether any LP executed an event.
func (p *Parallel) gatherMin() (Time, bool, bool) {
	var m Time
	has, changed := false, false
	for i := range p.wstate {
		ws := &p.wstate[i]
		if ws.ran {
			changed = true
		}
		if ws.has && (!has || ws.min < m) {
			m, has = ws.min, true
		}
	}
	return m, has, changed
}

// windowEnd bounds one window starting at m by the lookahead.
func (p *Parallel) windowEnd(m, limit Time) Time {
	end := m + p.lookahead
	if end < m { // overflow
		end = limit + 1
	}
	return end
}

// ensurePlan builds the LP->worker plan and per-worker scratch once, on the
// first run. The plan is fixed for the lifetime of the Parallel so merge
// ownership (which worker drains which destination) never shifts.
func (p *Parallel) ensurePlan() {
	if p.plan != nil {
		return
	}
	w := p.workers
	if w > len(p.lps) {
		w = len(p.lps)
	}
	if w < 1 {
		w = 1
	}
	p.workers = w
	p.plan = p.buildPlan(w)
	p.wstate = make([]workerScratch, w)
}

// startWorkers spins up the persistent pool: workers 1..n-1 each own a fixed
// slice of the plan (the coordinator executes plan[0] itself), labeled for
// CPU profiles so barrier, merge, and LP-execution time attribute per
// worker. The static assignment is irrelevant to results — LPs share
// nothing within a window — it only spreads load.
func (p *Parallel) startWorkers() {
	if p.started {
		return
	}
	p.started = true
	n := p.workers
	b := &phaseBarrier{
		nw:        int32(n - 1),
		spins:     barrierSpins(n),
		coordWake: make(chan struct{}, 1),
		workers:   make([]workerPark, n-1),
		prof:      p.prof != nil,
	}
	for i := range b.workers {
		b.workers[i].wake = make(chan struct{}, 1)
	}
	p.bar = b
	p.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func(w int) {
			defer p.wg.Done()
			pprof.Do(context.Background(), pprof.Labels("pdes-worker", strconv.Itoa(w)), func(context.Context) {
				p.workerLoop(w)
			})
		}(i)
	}
}

// workerLoop is one pooled worker: await a window release, run the phase,
// report arrival. Exits when Close releases with the quit flag set.
func (p *Parallel) workerLoop(w int) {
	b := p.bar
	for gen := uint64(1); ; gen++ {
		if !b.awaitGen(w, gen) {
			return
		}
		p.phase(w)
		b.arrive()
	}
}

// Close shuts the worker pool down. Safe to call multiple times; further
// Run calls restart it.
func (p *Parallel) Close() {
	if !p.started {
		return
	}
	p.started = false
	p.bar.quit.Store(true)
	p.bar.release()
	p.wg.Wait()
	p.absorbBarrierProf() // keep barrier wait accounting across pool restarts
	p.bar = nil
}

// Run executes windows until pred (evaluated at barriers where state
// changed, with all workers parked) returns true, the next event lies
// beyond limit, or the run quiesces. pred may be nil. The coordinator — the
// calling goroutine — participates as worker 0 and owns all cross-window
// sequencing, so pred may freely read state written by any LP during
// preceding windows.
//
// A one-LP run has no cross-LP traffic to window: every event is its own
// barrier, so Run is the LP's Engine.Run — pred is checked after every
// event and a Done run stops on the satisfying event. The barrier hook and
// the profiler see no windows there.
func (p *Parallel) Run(limit Time, pred func() bool) Outcome {
	return p.run(limit, pred, false)
}

// RunSerial is Run on a single goroutine: the coordinator executes every
// worker's phase itself. The schedule — and therefore every simulated
// result — is byte-identical to Run's; RunSerial exists for driver phases
// whose callbacks touch cross-LP shared state (e.g. a shared completion
// counter) and would race under concurrent workers.
func (p *Parallel) RunSerial(limit Time, pred func() bool) Outcome {
	return p.run(limit, pred, true)
}

// RunUntil is Engine.RunUntil across the partition: it runs every event
// with timestamp <= t, then advances the floor, and every LP's clock, to at
// least t (an LP whose last window ran past t keeps its clock). No pending
// event or buffered cross-LP message lies at or before t once Run has
// returned, so the advance is safe on any number of LPs.
func (p *Parallel) RunUntil(t Time) {
	p.Run(t, nil)
	if p.floor < t {
		p.floor = t
	}
	p.raiseClocks()
}

// raiseClocks advances every LP clock below the floor to it. Every pending
// event lies at or beyond the floor, so the advance is safe. Without it an
// idle LP's clock lags the run: a caller scheduling at that LP's Now could
// then make it send a cross-LP message behind its neighbour's clock.
func (p *Parallel) raiseClocks() {
	for _, e := range p.lps {
		if e.now < p.floor {
			e.now = p.floor
		}
	}
}

func (p *Parallel) run(limit Time, pred func() bool, serial bool) Outcome {
	if !p.finalized {
		panic("sim: Run before Finalize")
	}
	if len(p.lps) == 1 {
		return p.lps[0].Run(limit, pred)
	}
	pr := p.prof
	var t0 int64
	if pr != nil {
		t0 = profNow()
	}
	out := p.runLoop(limit, pred, serial)
	p.raiseClocks()
	if pr != nil {
		pr.runNs += uint64(profNow() - t0)
		pr.runs++
	}
	return out
}

func (p *Parallel) runLoop(limit Time, pred func() bool, serial bool) Outcome {
	p.ensurePlan()
	p.drainAll() // absorb any remote scheduling done between runs
	// Concurrency can only cost on one CPU, so a multi-worker run degrades
	// to the (result-identical) inline schedule there.
	inline := serial || p.workers == 1 || runtime.GOMAXPROCS(0) == 1
	pr := p.prof
	if pr != nil {
		pr.inline = inline
	}
	first := true
	for {
		// Barrier-sequential section: all workers parked.
		var tSeq int64
		if pr != nil {
			tSeq = profNow()
		}
		var m Time
		var ok, changed bool
		if first {
			m, ok = p.scanMin()
			changed = true
		} else {
			m, ok, changed = p.gatherMin()
		}
		if changed {
			if p.barrier != nil {
				p.barrier()
			}
			if pred != nil && pred() {
				p.drainAll()
				return Done
			}
		}
		if !ok {
			p.drainAll()
			return Quiescent
		}
		if m > limit {
			p.drainAll()
			return Horizon
		}
		if pr != nil {
			pr.windows++
			if !first {
				// Virtual advance between consecutive window starts: the
				// lookahead-slack signal. An advance at (or under) the
				// lookahead means back-to-back windows — barrier cadence at
				// its maximum; larger advances are idle skips.
				adv := m - p.floor
				pr.advSum += adv
				if adv > pr.advMax {
					pr.advMax = adv
				}
				if adv <= p.lookahead {
					pr.satWindows++
				}
			}
		}
		first = false
		p.floor = m
		p.phaseEnd = p.windowEnd(m, limit)
		p.transpose(p.wp)
		p.wp ^= 1
		if pr != nil {
			pr.seqNs += uint64(profNow() - tSeq)
		}
		if inline {
			for w := range p.plan {
				p.phase(w)
			}
			continue
		}
		p.startWorkers()
		p.bar.release()
		p.phase(0)
		p.bar.gather()
	}
}
