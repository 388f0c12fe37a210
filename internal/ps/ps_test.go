package ps

import (
	"testing"

	"repro/internal/sim"
)

func run(t *testing.T, scheme Scheme, cfg Config) Result {
	t.Helper()
	c, err := NewTestbed(cfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GradSums) != cfg.Iterations {
		t.Fatalf("%s: %d gradient aggregates for %d iterations", scheme, len(res.GradSums), cfg.Iterations)
	}
	want := c.ExpectedGradSum()
	for it, got := range res.GradSums {
		if got != want {
			t.Fatalf("%s iter %d: aggregated gradient %v, want %v", scheme, it, got, want)
		}
	}
	return res
}

func smallCfg(workers int) Config {
	return Config{
		Workers: workers, ModelBytes: 4 << 20, GradBytes: 4 << 20,
		ComputeNs: sim.Millisecond, Iterations: 3,
	}
}

func TestTrainingLoopCepheus(t *testing.T) {
	t.Parallel()
	res := run(t, SchemeCepheus, smallCfg(3))
	if res.JCT <= 0 || res.Bcast <= 0 || res.Reduce <= 0 {
		t.Fatalf("degenerate decomposition: %+v", res)
	}
	if res.JCT != res.Bcast+res.Reduce+res.Compute {
		t.Fatalf("JCT %v does not decompose (%v + %v + %v)", res.JCT, res.Bcast, res.Reduce, res.Compute)
	}
}

func TestTrainingLoopAMcast(t *testing.T) {
	t.Parallel()
	run(t, SchemeAMcast, smallCfg(3))
}

func TestCepheusBeatsAMcastCommunication(t *testing.T) {
	t.Parallel()
	cfg := smallCfg(3)
	cfg.ModelBytes = 32 << 20
	cfg.GradBytes = 32 << 20
	ceph := run(t, SchemeCepheus, cfg)
	base := run(t, SchemeAMcast, cfg)
	if ceph.Bcast >= base.Bcast {
		t.Fatalf("cepheus bcast %v not faster than chain %v", ceph.Bcast, base.Bcast)
	}
	if ceph.Reduce >= base.Reduce {
		t.Fatalf("in-network reduce %v not faster than gather %v", ceph.Reduce, base.Reduce)
	}
	if ceph.JCT >= base.JCT {
		t.Fatalf("cepheus JCT %v not faster than baseline %v", ceph.JCT, base.JCT)
	}
	t.Logf("per-iter comm: cepheus %v vs amcast %v (%.1fx)",
		(ceph.Bcast+ceph.Reduce)/sim.Time(cfg.Iterations),
		(base.Bcast+base.Reduce)/sim.Time(cfg.Iterations),
		float64(base.Bcast+base.Reduce)/float64(ceph.Bcast+ceph.Reduce))
}

func TestMoreWorkersSameCepheusBcast(t *testing.T) {
	t.Parallel()
	// The multicast side should be insensitive to worker count; the gather
	// baseline's reduce degrades with incast.
	c3 := run(t, SchemeCepheus, smallCfg(3))
	c6 := run(t, SchemeCepheus, smallCfg(6))
	if float64(c6.Bcast) > 1.5*float64(c3.Bcast) {
		t.Fatalf("cepheus bcast grew with workers: %v -> %v", c3.Bcast, c6.Bcast)
	}
	b3 := run(t, SchemeAMcast, smallCfg(3))
	b6 := run(t, SchemeAMcast, smallCfg(6))
	if b6.Reduce <= b3.Reduce {
		t.Fatalf("gather incast should degrade with workers: %v -> %v", b3.Reduce, b6.Reduce)
	}
}

func TestUnknownSchemeErrors(t *testing.T) {
	t.Parallel()
	if c, err := NewTestbed(smallCfg(2), "bogus"); err == nil || c != nil {
		t.Fatalf("NewTestbed = (%v, %v), want an error for an unknown scheme", c, err)
	}
}
