package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Probe reads one telemetry value at sample time (a queue depth, a DCQCN
// rate, a counter). Probes run inside the simulation — at deterministic
// simulated instants — so sampled series are reproducible across runs.
type Probe func() float64

// SeriesSet is a periodic telemetry sampler riding one re-armable
// sim.Timer: every interval it reads every tracked probe into fixed-capacity
// columns sharing a single time axis. When the capacity fills, the set
// decimates in place — every other sample is dropped and the interval
// doubles — so a run of any length fits in constant memory while keeping a
// uniform grid (the adaptive scheme flight recorders use).
//
// The sampler's timer lives on the cluster's engine, and probes read device
// state directly.
type SeriesSet struct {
	eng      *sim.Engine
	timer    *sim.Timer
	interval sim.Time
	capacity int
	started  bool
	stopped  bool

	t    []sim.Time
	cols []seriesCol
}

type seriesCol struct {
	name  string
	probe Probe
	delta bool
	prev  float64
	v     []float64
}

// NewSeriesSet creates a sampler on eng with the given sampling interval and
// per-series capacity (minimum 16; the default of 4096 applies when
// capacity <= 0). Call Track/TrackDelta, then Start.
func NewSeriesSet(eng *sim.Engine, interval sim.Time, capacity int) *SeriesSet {
	if interval <= 0 {
		interval = 1e6 // 1 ms
	}
	if capacity <= 0 {
		capacity = 4096
	}
	if capacity < 16 {
		capacity = 16
	}
	s := &SeriesSet{eng: eng, interval: interval, capacity: capacity}
	s.timer = eng.NewTimer(s.tick)
	return s
}

// Track adds a gauge series sampled as probe().
func (s *SeriesSet) Track(name string, probe Probe) {
	if len(s.t) > 0 {
		panic("obs: Track after sampling started")
	}
	s.cols = append(s.cols, seriesCol{name: name, probe: probe})
}

// TrackDelta adds a rate-style series: each sample records the increase of
// probe() since the previous sample (counters become per-interval deltas).
func (s *SeriesSet) TrackDelta(name string, probe Probe) {
	if len(s.t) > 0 {
		panic("obs: TrackDelta after sampling started")
	}
	s.cols = append(s.cols, seriesCol{name: name, probe: probe, delta: true})
}

// Start arms the sampler; the first sample lands one interval from now.
func (s *SeriesSet) Start() {
	if s.started {
		return
	}
	s.started = true
	for i := range s.cols {
		if s.cols[i].delta {
			s.cols[i].prev = s.cols[i].probe()
		}
	}
	s.timer.Reset(s.interval)
}

// Stop disarms the sampler; recorded samples remain readable.
func (s *SeriesSet) Stop() {
	s.stopped = true
	s.timer.Stop()
}

func (s *SeriesSet) tick() {
	if s.stopped {
		return
	}
	s.t = append(s.t, s.eng.Now())
	for i := range s.cols {
		c := &s.cols[i]
		v := c.probe()
		if c.delta {
			v, c.prev = v-c.prev, v
		}
		c.v = append(c.v, v)
	}
	if len(s.t) >= s.capacity {
		s.decimate()
	}
	s.timer.Reset(s.interval)
}

// decimate halves the sample count in place and doubles the interval.
func (s *SeriesSet) decimate() {
	n := len(s.t) / 2
	for i := 0; i < n; i++ {
		s.t[i] = s.t[2*i]
	}
	s.t = s.t[:n]
	for ci := range s.cols {
		c := &s.cols[ci]
		for i := 0; i < n; i++ {
			c.v[i] = c.v[2*i]
		}
		c.v = c.v[:n]
	}
	s.interval *= 2
}

// Samples returns how many samples each series currently holds.
func (s *SeriesSet) Samples() int { return len(s.t) }

// Interval returns the current sampling interval (doubles on decimation).
func (s *SeriesSet) Interval() sim.Time { return s.interval }

// Names lists the tracked series, in Track order.
func (s *SeriesSet) Names() []string {
	out := make([]string, len(s.cols))
	for i := range s.cols {
		out[i] = s.cols[i].name
	}
	return out
}

// Values returns the sample column for a series name, or nil.
func (s *SeriesSet) Values(name string) []float64 {
	for i := range s.cols {
		if s.cols[i].name == name {
			return s.cols[i].v
		}
	}
	return nil
}

// Times returns the shared time axis.
func (s *SeriesSet) Times() []sim.Time { return s.t }

// fmtF renders a float deterministically (shortest round-trip form).
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV writes the set in wide form: a t_ns column then one column per
// series, one row per sample.
func (s *SeriesSet) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "t_ns")
	for i := range s.cols {
		fmt.Fprintf(bw, ",%s", s.cols[i].name)
	}
	fmt.Fprintln(bw)
	for r := range s.t {
		fmt.Fprintf(bw, "%d", int64(s.t[r]))
		for i := range s.cols {
			fmt.Fprintf(bw, ",%s", fmtF(s.cols[i].v[r]))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// WriteJSON writes {"interval_ns":…,"t":[…],"series":{name:[…],…}} with
// deterministic float formatting and series in Track order.
func (s *SeriesSet) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"interval_ns\":%d,\"t\":[", int64(s.interval))
	for i, t := range s.t {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%d", int64(t))
	}
	fmt.Fprint(bw, "],\"series\":{")
	for ci := range s.cols {
		if ci > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%q:[", s.cols[ci].name)
		for i, v := range s.cols[ci].v {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(fmtF(v))
		}
		bw.WriteByte(']')
	}
	fmt.Fprintln(bw, "}}")
	return bw.Flush()
}
