// Command perfbench is the repository's performance benchmark: it builds
// one of three fixed workloads from a seed, times set-up and a run of
// simulated broadcasts or rounds, checks every op's delivered bytes, and
// prints the metrics as one JSON line. See README.md beside it.
//
//	go run . --workload bcast_k16 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer ones from a CPU profile and public counters.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	cepheus "repro"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: bcast_k16, bintree_k8 or groups_loss_k8")
	seed := flag.Int64("seed", 1, "workload seed (member placement and simulation RNG)")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds of timed ops, shared equally by the clusters")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> (workload %q)\n", *name)
		return 2
	}
	b := &bench{w: w, seed: *seed, traced: *trace == 1, epoch: time.Now(), out: bufio.NewWriter(os.Stdout)}
	defer b.out.Flush()
	b.emit(hostMeta(w.name, *seed, *seconds, *trace))
	res, err := b.measure(time.Duration(*seconds * float64(time.Second)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b.emit(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// span is one timed call into a layer, kept in memory and written at exit.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 at the top level
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // wall clock since the benchmark started
	End    float64 `json:"end_ms"`
	CPU    float64 `json:"cpu_ms"` // process CPU time spent inside the span
}

type bench struct {
	w      workload
	seed   int64
	traced bool
	epoch  time.Time
	out    *bufio.Writer
	spans  []span

	attempted, failed int
}

func (b *bench) emit(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are emitted
	}
	b.out.Write(append(line, '\n'))
}

func (b *bench) since(t time.Time) float64 { return float64(t.Sub(b.epoch)) / 1e6 }

// timed runs fn as a span under parent, passing fn the span's id for its
// children, and returns the span's process CPU time and wall time.
func (b *bench) timed(name string, parent int, fn func(id int)) (cpu, wall time.Duration) {
	id := len(b.spans)
	t0, c0 := time.Now(), cpuTime()
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, Start: b.since(t0)})
	fn(id)
	t1, c1 := time.Now(), cpuTime()
	b.spans[id].End, b.spans[id].CPU = b.since(t1), ms(c1-c0)
	return c1 - c0, t1.Sub(t0)
}

// cpuTime is the CPU time the process has used, user plus system, over all
// threads. It is the benchmark's clock for every reported time: unlike wall
// time it leaves out the time a virtual machine's CPUs are stolen by the
// hypervisor, and it includes the garbage collector's background workers.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opSample is one op's host cost and simulated work.
type opSample struct {
	cpu    time.Duration
	wall   time.Duration
	span   sim.Time
	events uint64
	hops   uint64
}

// op drives one op on d, timing the drive alone; the delivery check and the
// counter reads sit outside the timed region.
func (b *bench) op(c *cepheus.Cluster, d runner, parent int) opSample {
	d.begin()
	ev0, hops0 := c.EventsRun(), fabricHops(c)
	var s sim.Time
	var err error
	cpu, wall := b.timed("op", parent, func(int) { s, err = d.run() })
	if err == nil {
		err = d.check()
	}
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", b.w.name, b.attempted, err)
	}
	return opSample{cpu: cpu, wall: wall, span: s, events: c.EventsRun() - ev0, hops: fabricHops(c) - hops0}
}

// ops runs ops until budget has elapsed, and at least minTimedOps of them.
func (b *bench) ops(c *cepheus.Cluster, d runner, budget time.Duration, parent int) []opSample {
	var out []opSample
	var spent time.Duration
	for spent < budget || len(out) < minTimedOps {
		s := b.op(c, d, parent)
		spent += s.wall
		out = append(out, s)
	}
	return out
}

// minTimedOps keeps every median meaningful when an op is slow relative to
// a cluster's share of the run.
const minTimedOps = 3

// tally collects a run's samples across its clusters.
type tally struct {
	setupS, buildMs, topoMs, registerMs, coldMs []float64
	plain, traced                               []opSample // untraced and profiled timed ops
	prof                                        layerCost
	delta                                       counters // public counters over the timed ops
	allocs, gcs                                 uint64
	maxQueue                                    int
	heapBytes                                   uint64
	digest                                      digest
	exec                                        *obs.ExecReport // last cluster's; nil on the sequential engine
}

// measure builds w.clusters fresh clusters one after another and gives
// each an equal share of the timed budget, so set-up, cold-op and op
// samples all spread over the whole run instead of bunching at its start.
func (b *bench) measure(budget time.Duration) (result, error) {
	w := b.w
	t := &tally{delta: counters{}, prof: layerCost{Nanos: map[string]int64{}}}
	share := budget / time.Duration(w.clusters)
	for i := 0; i < w.clusters; i++ {
		if err := b.cluster(t, share, i, i == w.clusters-1); err != nil {
			return result{}, fmt.Errorf("cluster %d: %w", i, err)
		}
	}
	b.emit(t.digest.record(w.name, b.seed))

	opMs := medianOf(t.plain, func(s opSample) float64 { return ms(s.cpu) })
	b.emit(map[string]any{
		"record": "timing", "clusters": w.clusters, "timed_ops": len(t.plain), "profiled_ops": len(t.traced),
		"op_wall_ms": medianOf(t.plain, func(s opSample) float64 { return ms(s.wall) }),
	})
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if !b.traced {
		put("op_ms", opMs, "ms")
		put("hops_per_s", medianOf(t.plain, func(s opSample) float64 { return float64(s.hops) / s.cpu.Seconds() }), "1/s")
		put("setup_s", median(t.setupS), "s")
		put("cold_op_ms", median(t.coldMs), "ms")
		put("heap_mb", float64(t.heapBytes)/1e6, "MB")
		return res, nil
	}

	// Per-layer report. Set-up splits by the spans around each public call;
	// op cost splits by the CPU profile of the profiled ops; counts are
	// public statistics per timed op.
	topoMed := median(t.topoMs)
	put("topo.build_ms", topoMed, "ms")
	put("cepheus.wire_ms", median(t.buildMs)-topoMed, "ms")
	put("core.register_ms", median(t.registerMs), "ms")
	for _, l := range layers {
		put(l+".self_ms", float64(t.prof.Nanos[l])/1e6/float64(len(t.traced)), "ms")
	}
	put("trace.profile_samples", float64(t.prof.Samples), "count")
	tracedMs := medianOf(t.traced, func(s opSample) float64 { return ms(s.cpu) })
	put("trace.overhead_pct", 100*ratio(tracedMs-opMs, opMs), "%")

	var plainCPU time.Duration
	var plainEvents uint64
	for _, s := range t.plain {
		plainCPU += s.cpu
		plainEvents += s.events
	}
	n := len(t.plain) + len(t.traced)
	k := t.delta
	per := func(name string) float64 { return perOp(float64(k[name]), n) }
	frac := func(num, den string) float64 { return ratio(float64(k[num]), float64(k[den])) }
	put("sim.events_per_op", per("sim.events"), "count")
	put("sim.ns_per_event", ratio(float64(plainCPU.Nanoseconds()), float64(plainEvents)), "ns")
	put("simnet.hops_per_op", per("simnet.hops"), "count")
	put("simnet.ecn_marks_per_op", per("simnet.ecn_marks"), "count")
	put("simnet.pauses_per_op", per("simnet.pauses"), "count")
	put("simnet.max_queue_kb", float64(t.maxQueue)/1024, "KiB")
	put("simnet.drops_per_op", per("simnet.drops"), "count")
	put("core.replicated_per_op", per("core.replicated"), "count")
	put("core.ack_agg_ratio", frac("core.acks_in", "core.acks_emitted"), "ratio")
	put("core.nack_agg_ratio", frac("core.nacks_in", "core.nacks_emitted"), "ratio")
	put("core.cnp_filter_ratio", frac("core.cnps_filtered", "core.cnps_in"), "ratio")
	put("core.retrans_filtered_per_op", per("core.retrans_filtered"), "count")
	put("roce.data_sent_per_op", per("roce.data_sent"), "count")
	put("roce.retx_ratio", frac("roce.retransmits", "roce.data_sent"), "ratio")
	put("roce.gobackn_per_op", per("roce.gobackn"), "count")
	put("roce.timeouts_per_op", per("roce.timeouts"), "count")
	put("roce.dup_per_op", per("roce.dup"), "count")
	put("obs.goodput_bytes_per_op", per("obs.delivered"), "B")
	put("runtime.allocs_per_op", perOp(float64(t.allocs), n), "count")
	put("runtime.gc_per_op", perOp(float64(t.gcs), n), "count")
	// Executor telemetry exists only when the default execution path is
	// partitioned; the sequential engine reports none.
	if t.exec != nil {
		put("exec.efficiency_pct", 100*t.exec.ExecEfficiency, "%")
		put("exec.stall_pct", t.exec.StallPct, "%")
	}
	b.emit(map[string]any{"record": "spans", "spans": b.spans})
	return res, nil
}

// cluster runs one cluster's share of the run: timed set-up, the cold
// first op, warm-up, then timed ops for share — under the CPU profiler for
// the second half in a traced run. The last cluster of a run also yields
// the live heap.
//
// Cluster i of a run takes its member placement and simulation seed from
// (run seed, i), so a run's medians average over several placements and
// loss patterns instead of resting on one.
func (b *bench) cluster(t *tally, share time.Duration, i int, last bool) error {
	w := b.w
	seed := b.seed<<8 | int64(i)
	if b.traced {
		// topo.build_ms: the topology alone, on a fresh engine with the
		// parameters NewFatTree passes, from the same returned-to-the-OS
		// heap as the cluster build that follows.
		debug.FreeOSMemory()
		d, _ := b.timed("topo.FatTreeWithTrunk", -1, func(int) {
			topo.FatTreeWithTrunk(sim.New(seed+1), w.k, topo.DefaultLinkRate, topo.DefaultPropDelay, topo.DefaultPropDelay)
		})
		t.topoMs = append(t.topoMs, ms(d))
	}
	debug.FreeOSMemory()
	var c *cepheus.Cluster
	var d runner
	var err error
	setup := -1
	total, _ := b.timed("setup", -1, func(id int) {
		setup = id
		build, _ := b.timed("cepheus.NewFatTree", id, func(int) { c = newCluster(w, seed, b.traced) })
		reg, _ := b.timed("core.register", id, func(int) { d, err = w.prepare(c, rand.New(rand.NewSource(seed))) })
		t.buildMs = append(t.buildMs, ms(build))
		t.registerMs = append(t.registerMs, ms(reg))
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer c.Close()
	t.setupS = append(t.setupS, total.Seconds())
	b.timed("cold_op", setup, func(id int) {
		cold := b.op(c, d, id)
		t.coldMs = append(t.coldMs, ms(cold.cpu))
		t.digest.spans = append(t.digest.spans, int64(cold.span))
	})
	b.timed("warmup", -1, func(id int) {
		for i := 0; i < warmupOps; i++ {
			t.digest.spans = append(t.digest.spans, int64(b.op(c, d, id).span))
		}
	})
	if t.digest.events == 0 {
		t.digest.events, t.digest.hops, t.digest.metrics = c.EventsRun(), fabricHops(c), c.Metrics().String()
	}

	c.ResetExecProfile()
	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	before := readCounters(c)
	if !b.traced {
		b.timed("timed", -1, func(id int) { t.plain = append(t.plain, b.ops(c, d, share, id)...) })
	} else {
		// Half the share untraced, half under the CPU profiler: the
		// difference of their op medians is the tracing overhead.
		b.timed("timed", -1, func(id int) { t.plain = append(t.plain, b.ops(c, d, share/2, id)...) })
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		b.timed("timed.profiled", -1, func(id int) { t.traced = append(t.traced, b.ops(c, d, share/2, id)...) })
		pprof.StopCPUProfile()
		prof, err := foldProfile(buf.Bytes())
		if err != nil {
			return err
		}
		t.prof.Samples += prof.Samples
		for l, ns := range prof.Nanos {
			t.prof.Nanos[l] += ns
		}
	}
	runtime.ReadMemStats(&mem1)
	t.delta.addDelta(readCounters(c), before)
	t.allocs += mem1.Mallocs - mem0.Mallocs
	t.gcs += uint64(mem1.NumGC - mem0.NumGC)
	t.maxQueue = max(t.maxQueue, maxQueueBytes(c))
	t.exec = c.ExecProfile()
	if last {
		runtime.GC()
		var heap runtime.MemStats
		runtime.ReadMemStats(&heap)
		t.heapBytes = heap.HeapAlloc
		runtime.KeepAlive(c)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianOf(xs []opSample, f func(opSample) float64) float64 {
	vals := make([]float64, len(xs))
	for i, s := range xs {
		vals[i] = f(s)
	}
	return median(vals)
}

// digest fingerprints a run's simulated behaviour: the simulated span of
// every cold op and warm-up op, then the cluster's events, packet-hops and
// fault counters after the warm-up. It is fixed by the seed, so any change
// in it means the simulation itself changed.
type digest struct {
	spans   []int64
	events  uint64
	hops    uint64
	metrics string
}

func (g digest) record(name string, seed int64) map[string]any {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %v %d %d %s", name, seed, g.spans, g.events, g.hops, g.metrics)
	return map[string]any{
		"record": "digest", "workload": name, "seed": seed,
		"op_spans_ns": g.spans, "events": g.events, "hops": g.hops, "metrics": g.metrics,
		"sha256": fmt.Sprintf("%x", h.Sum(nil)),
	}
}

// hostMeta is the provenance record that leads every run's output.
func hostMeta(name string, seed int64, seconds float64, trace int) map[string]any {
	return map[string]any{
		"record": "meta", "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "cpu_model": cpuModel(),
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
