package sim

import "testing"

// pingPonger bounces a single event around the LP ring. Only one event is in
// flight at a time, and the barrier between windows orders each hop, so the
// shared counter is race-free by the coordinator's happens-before chain.
type pingPonger struct {
	par   *Parallel
	delay Time
	count int
	limit int
}

func (pp *pingPonger) OnEvent(e *Engine, arg any) {
	pp.count++
	if pp.count >= pp.limit {
		return
	}
	next := pp.par.LP((e.LP() + 1) % pp.par.NumLPs())
	e.ScheduleRemote(next, e.Now()+pp.delay, pp, nil)
}

func TestParallelPingPong(t *testing.T) {
	const lookahead = Time(100)
	p := NewParallel(1, 2)
	defer p.Close()
	a := p.AddLP()
	p.AddLP()
	p.Finalize(lookahead)

	pp := &pingPonger{par: p, delay: lookahead, limit: 10}
	a.ScheduleHandler(0, pp, nil)
	if out := p.Run(Time(1_000_000), nil); out != Quiescent {
		t.Fatalf("outcome = %v, want Quiescent", out)
	}
	if pp.count != 10 {
		t.Fatalf("count = %d, want 10", pp.count)
	}
	// Hop i executes at i*lookahead; the last hop lands on LP 1's clock.
	if got := p.LP(1).Now(); got != 9*lookahead {
		t.Fatalf("final LP1 clock = %v, want %v", got, 9*lookahead)
	}
	if got := p.EventsRun(); got != 10 {
		t.Fatalf("EventsRun = %d, want 10", got)
	}
}

// churn is a randomized workload: every event folds its LP's clock and a
// private RNG draw into a per-LP digest, then respawns locally or to a random
// LP at >= lookahead distance. Each digest slot is written only by its owning
// LP, so the workload is parallel-safe and its result depends only on the
// seed and partition — never on the worker count.
type churn struct {
	par    *Parallel
	delay  Time
	digest []uint64
	nLeft  []int
}

func (c *churn) OnEvent(e *Engine, arg any) {
	lp := e.LP()
	c.digest[lp] = c.digest[lp]*1099511628211 ^ uint64(e.Now()) ^ uint64(e.Rand().Int63())
	if c.nLeft[lp] <= 0 {
		return
	}
	c.nLeft[lp]--
	if e.Rand().Intn(100) < 30 {
		dst := c.par.LP(e.Rand().Intn(c.par.NumLPs()))
		e.ScheduleRemote(dst, e.Now()+c.delay+Time(e.Rand().Intn(500)), c, nil)
	} else {
		e.AfterHandler(Time(1+e.Rand().Intn(200)), c, nil)
	}
}

// runChurn executes the churn workload on nLP LPs with the given worker count
// (0 = RunSerial) and returns (combined digest, events run, floor time).
func runChurn(t *testing.T, seed int64, nLP, workers int) (uint64, uint64, Time) {
	t.Helper()
	p := NewParallel(seed, max(workers, 1))
	defer p.Close()
	for i := 0; i < nLP; i++ {
		p.AddLP()
	}
	p.Finalize(200)
	c := &churn{par: p, delay: 200, digest: make([]uint64, nLP), nLeft: make([]int, nLP)}
	for i := 0; i < nLP; i++ {
		c.nLeft[i] = 400
		for j := 0; j < 4; j++ {
			p.LP(i).ScheduleHandler(Time(j), c, nil)
		}
	}
	var out Outcome
	if workers == 0 {
		out = p.RunSerial(Time(1)<<40, nil)
	} else {
		out = p.Run(Time(1)<<40, nil)
	}
	if out != Quiescent {
		t.Fatalf("outcome = %v, want Quiescent", out)
	}
	var d uint64
	for _, v := range c.digest {
		d = d*0x9E3779B97F4A7C15 + v
	}
	return d, p.EventsRun(), p.Now()
}

func TestParallelWorkerInvariance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		refD, refN, refT := runChurn(t, seed, 8, 0) // RunSerial reference
		for _, w := range []int{1, 2, 4, 8} {
			d, n, tm := runChurn(t, seed, 8, w)
			if d != refD || n != refN || tm != refT {
				t.Fatalf("seed %d workers %d: (digest %x, events %d, now %v) != serial (%x, %d, %v)",
					seed, w, d, n, tm, refD, refN, refT)
			}
		}
	}
}

// orderProbe records the value carried by each delivered message, in
// execution order. Only the destination LP writes the slice.
type orderProbe struct{ got []int }

func (o *orderProbe) OnEvent(e *Engine, arg any) { o.got = append(o.got, arg.(int)) }

// sendAt schedules its batch of probe events on dst at time at when it
// fires: cross-LP messages when dst is another LP, local events when it is
// the firing LP itself.
type sendAt struct {
	dst   *Engine
	at    Time
	vals  []int
	probe *orderProbe
}

func (s *sendAt) OnEvent(e *Engine, arg any) {
	for _, v := range s.vals {
		e.ScheduleRemote(s.dst, s.at, s.probe, v)
	}
}

func TestParallelDrainOrder(t *testing.T) {
	// Two source LPs send same-timestamp messages to LP 0. The merge must
	// order them (time, source LP, send order) regardless of which worker
	// finished first, so LP 1's batch precedes LP 2's. Destination-local
	// events at the same instant run in queueing order around the merge:
	// one queued before it runs first, one queued after it runs last.
	p := NewParallel(3, 4)
	defer p.Close()
	dst := p.AddLP()
	s1eng := p.AddLP()
	s2eng := p.AddLP()
	p.Finalize(100)

	probe := &orderProbe{}
	const at = Time(250)
	s1eng.ScheduleHandler(0, &sendAt{dst: dst, at: at, vals: []int{10, 11}, probe: probe}, nil)
	s2eng.ScheduleHandler(0, &sendAt{dst: dst, at: at, vals: []int{20, 21}, probe: probe}, nil)
	// Mixed earlier/later timestamps must interleave purely by time: LP 2's
	// earlier message runs before LP 1's batch, its later one after both.
	s2eng.ScheduleHandler(1, &sendAt{dst: dst, at: at + 50, vals: []int{99}, probe: probe}, nil)
	s2eng.ScheduleHandler(2, &sendAt{dst: dst, at: at - 5, vals: []int{5}, probe: probe}, nil)
	// Queued before the merge, at the messages' instant.
	dst.ScheduleHandler(at, probe, 1)
	// The window holding the messages starts at 240, merges them, then runs
	// this event, which queues the probe at their instant after the merge.
	dst.ScheduleHandler(at-10, &sendAt{dst: dst, at: at, vals: []int{2}, probe: probe}, nil)
	if out := p.Run(Time(1_000_000), nil); out != Quiescent {
		t.Fatalf("outcome = %v, want Quiescent", out)
	}
	want := []int{5, 1, 10, 11, 20, 21, 2, 99}
	if len(probe.got) != len(want) {
		t.Fatalf("got %v, want %v", probe.got, want)
	}
	for i, v := range want {
		if probe.got[i] != v {
			t.Fatalf("got %v, want %v", probe.got, want)
		}
	}
}

// monoTicker re-arms itself every 10 ns on its LP until stopped and records
// whether its LP's clock ever moved backwards between two of its events.
// Events carrying a non-nil arg are cross-LP deliveries and do not re-arm.
type monoTicker struct {
	n, remote int
	stop      bool
	last      Time
	backwards bool
}

func (m *monoTicker) OnEvent(e *Engine, arg any) {
	if e.Now() < m.last {
		m.backwards = true
	}
	m.last = e.Now()
	if arg != nil {
		m.remote++
		return
	}
	m.n++
	if !m.stop {
		e.AfterHandler(10, m, nil)
	}
}

// remoteSend sends one delivery to dst one lookahead from now.
type remoteSend struct {
	dst       *Engine
	lookahead Time
	tk        *monoTicker
}

func (r *remoteSend) OnEvent(e *Engine, arg any) {
	e.ScheduleRemote(r.dst, e.Now()+r.lookahead, r.tk, true)
}

// TestParallelIdleLPClockFollowsFloor: a run that returns Done must leave no
// LP clock below the window floor. Otherwise an event scheduled at an idle
// LP's Now sends a cross-LP message behind the busy receiver's clock, and
// the receiver's clock runs backwards.
func TestParallelIdleLPClockFollowsFloor(t *testing.T) {
	const lookahead = Time(100)
	p := NewParallel(1, 1)
	defer p.Close()
	busy := p.AddLP()
	idle := p.AddLP()
	p.Finalize(lookahead)

	tk := &monoTicker{}
	busy.ScheduleHandler(0, tk, nil)
	if out := p.Run(MaxTime, func() bool { return tk.n >= 100 }); out != Done {
		t.Fatalf("outcome = %v, want Done", out)
	}
	floor := p.Now()
	if idle.Now() < floor {
		t.Fatalf("idle LP clock %v lags the floor %v after Done", idle.Now(), floor)
	}
	idle.ScheduleHandler(idle.Now(), &remoteSend{dst: busy, lookahead: lookahead, tk: tk}, nil)
	if out := p.Run(MaxTime, func() bool { return tk.remote == 1 }); out != Done {
		t.Fatalf("second run outcome = %v, want Done", out)
	}
	tk.stop = true
	if out := p.Run(MaxTime, nil); out != Quiescent {
		t.Fatalf("final run outcome = %v, want Quiescent", out)
	}
	if tk.backwards {
		t.Fatal("the receiving LP's clock moved backwards")
	}
	if p.Now() < floor {
		t.Fatalf("floor moved backwards: %v -> %v", floor, p.Now())
	}
}

func TestParallelOutcomes(t *testing.T) {
	p := NewParallel(9, 2)
	defer p.Close()
	a := p.AddLP()
	p.AddLP()
	p.Finalize(100)

	if out := p.Run(1000, nil); out != Quiescent {
		t.Fatalf("empty run: %v, want Quiescent", out)
	}
	pp := &pingPonger{par: p, delay: 100, limit: 1 << 30}
	a.ScheduleHandler(5000, pp, nil)
	if out := p.Run(1000, nil); out != Horizon {
		t.Fatalf("beyond-limit run: %v, want Horizon", out)
	}
	if pp.count != 0 {
		t.Fatalf("event ran despite horizon: count = %d", pp.count)
	}
	if out := p.Run(Time(1)<<40, func() bool { return pp.count >= 3 }); out != Done {
		t.Fatalf("pred run: %v, want Done", out)
	}
	if pp.count < 3 {
		t.Fatalf("pred satisfied with count = %d", pp.count)
	}
}

// TestFinalizeNeedsLookahead: windows over more than one LP need a positive
// lookahead; only a one-LP run, which has no windows, accepts 0.
func TestFinalizeNeedsLookahead(t *testing.T) {
	p := NewParallel(1, 1)
	p.AddLP()
	p.AddLP()
	defer func() {
		if recover() == nil {
			t.Fatal("Finalize(0) over two LPs must panic")
		}
	}()
	p.Finalize(0)
}

// TestParallelSingleLPMatchesSequential pins the RNG-stream contract: LP 0 of
// a Parallel run is seeded exactly like a standalone New(seed) engine, so a
// one-LP partition replays a sequential run event for event.
type selfSpawn struct {
	left int
}

func (s *selfSpawn) OnEvent(e *Engine, arg any) {
	if s.left <= 0 {
		return
	}
	s.left--
	e.AfterHandler(Time(1+e.Rand().Intn(50)), s, nil)
}

func TestParallelSingleLPMatchesSequential(t *testing.T) {
	const seed = 77
	ref := New(seed)
	rs := &selfSpawn{left: 1000}
	ref.ScheduleHandler(0, rs, nil)
	ref.Run(MaxTime, nil)

	p := NewParallel(seed, 4)
	defer p.Close()
	lp := p.AddLP()
	p.Finalize(0) // no cross-LP links: every event is a barrier
	ps := &selfSpawn{left: 1000}
	lp.ScheduleHandler(0, ps, nil)
	if out := p.Run(Time(1)<<40, nil); out != Quiescent {
		t.Fatalf("outcome = %v, want Quiescent", out)
	}
	if lp.EventsRun() != ref.EventsRun() || lp.Now() != ref.Now() {
		t.Fatalf("parallel (events %d, now %v) != sequential (%d, %v)",
			lp.EventsRun(), lp.Now(), ref.EventsRun(), ref.Now())
	}
	if lp.Rand().Int63() != ref.Rand().Int63() {
		t.Fatal("RNG streams diverged between 1-LP parallel and sequential runs")
	}
}

// fanOut is a deterministic all-to-all workload: each firing sends one
// message to every other LP at fixed relative offsets, until its LP's
// respawn budget is exhausted. Every burst replays the same shape relative
// to the current clock, so buffer high-water marks are identical from one
// burst to the next — which is what an allocation-regression test needs
// (the randomized churn workload keeps setting new high-water marks and
// would report residual growth as false-positive leaks).
type fanOut struct {
	par  *Parallel
	left []int
}

func (f *fanOut) OnEvent(e *Engine, arg any) {
	lp := e.LP()
	if f.left[lp] <= 0 {
		return
	}
	f.left[lp]--
	for d := 0; d < f.par.NumLPs(); d++ {
		if d == lp {
			continue
		}
		e.ScheduleRemote(f.par.LP(d), e.Now()+200+Time(d), f, nil)
	}
	e.AfterHandler(37, f, nil)
}

// TestParallelSteadyStateAllocs pins the executor's steady-state allocation
// contract: once the outboxes, dirty lists, and destination queues have grown
// to the workload's high-water mark, further windows allocate nothing on the
// coordinator path. The first run warms every buffer; the measured runs must
// then be allocation-free (serial path exactly; the worker path gets a small
// slack for runtime park/unpark bookkeeping on multi-core machines).
func TestParallelSteadyStateAllocs(t *testing.T) {
	p := NewParallel(11, 4)
	defer p.Close()
	const nLP = 8
	for i := 0; i < nLP; i++ {
		p.AddLP()
	}
	p.Finalize(200)
	f := &fanOut{par: p, left: make([]int, nLP)}
	burst := func() {
		for i := 0; i < nLP; i++ {
			f.left[i] = 40
			p.LP(i).ScheduleHandler(p.LP(i).Now()+Time(i+1), f, nil)
		}
	}
	burst()
	if out := p.RunSerial(Time(1)<<40, nil); out != Quiescent {
		t.Fatalf("warmup outcome = %v, want Quiescent", out)
	}
	allocs := testing.AllocsPerRun(3, func() {
		burst()
		if out := p.RunSerial(Time(1)<<40, nil); out != Quiescent {
			t.Fatalf("outcome = %v, want Quiescent", out)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state serial windows allocate: %.1f allocs/run, want 0", allocs)
	}
	// The concurrent path may touch runtime park/unpark machinery; allow a
	// small slack but catch per-window or per-message regressions, which
	// show up in the hundreds.
	allocs = testing.AllocsPerRun(3, func() {
		burst()
		if out := p.Run(Time(1)<<40, nil); out != Quiescent {
			t.Fatalf("outcome = %v, want Quiescent", out)
		}
	})
	if allocs > 16 {
		t.Errorf("steady-state parallel windows allocate: %.1f allocs/run, want <= 16", allocs)
	}
}
