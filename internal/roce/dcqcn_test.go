package roce

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// dcqcnEnv: two senders share one receiver's link through the ToR.
func TestDCQCNFairConvergence(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := topo.Testbed(eng, 3)
	cfg := DefaultConfig()
	cfg.DCQCN = true
	cfg.WindowPkts = 256
	r0 := NewRNIC(n.Hosts[0], cfg)
	r1 := NewRNIC(n.Hosts[1], cfg)
	r2 := NewRNIC(n.Hosts[2], cfg)
	q0 := r0.CreateQP()
	q1 := r1.CreateQP()
	d0 := r2.CreateQP()
	d1 := r2.CreateQP()
	q0.Connect(n.Hosts[2].IP, d0.QPN)
	q1.Connect(n.Hosts[2].IP, d1.QPN)
	// Long-running transfers: keep posting.
	var post0, post1 func()
	post0 = func() { q0.PostSend(1<<20, post0) }
	post1 = func() { q1.PostSend(1<<20, post1) }
	post0()
	post1()

	eng.RunUntil(20 * sim.Millisecond)
	g0at20, g1at20 := d0.GoodputBytes, d1.GoodputBytes
	eng.RunUntil(40 * sim.Millisecond)
	// Measure over the second 20ms, after convergence.
	tput0 := float64(d0.GoodputBytes-g0at20) * 8 / 0.020 / 1e9
	tput1 := float64(d1.GoodputBytes-g1at20) * 8 / 0.020 / 1e9
	total := tput0 + tput1
	if total < 60 || total > 100 {
		t.Fatalf("aggregate %.1f Gbps; link under-utilized or oversubscribed", total)
	}
	ratio := tput0 / tput1
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("unfair split: %.1f vs %.1f Gbps", tput0, tput1)
	}
	if r0.Stats.CNPsRecv == 0 && r1.Stats.CNPsRecv == 0 {
		t.Fatal("no CNPs received; congestion control never engaged")
	}
}

func TestDCQCNCutsOnCNP(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := topo.Testbed(eng, 2)
	cfg := DefaultConfig()
	cfg.DCQCN = true
	r0 := NewRNIC(n.Hosts[0], cfg)
	q0 := r0.CreateQP()
	q0.Connect(n.Hosts[1].IP, 2)
	line := n.LinkRate
	if q0.Rate() != line {
		t.Fatalf("initial rate %.0f, want line rate", q0.Rate())
	}
	q0.cc.onCNP()
	if q0.Rate() >= line {
		t.Fatal("rate did not decrease on CNP")
	}
	// alpha=1 at first CNP: cut should be half.
	if got := q0.Rate(); got < line*0.49 || got > line*0.51 {
		t.Fatalf("first cut to %.1f%% of line, want ~50%%", got/line*100)
	}
}

func TestDCQCNMinDecreaseInterval(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := topo.Testbed(eng, 2)
	cfg := DefaultConfig()
	cfg.DCQCN = true
	r0 := NewRNIC(n.Hosts[0], cfg)
	q0 := r0.CreateQP()
	q0.Connect(n.Hosts[1].IP, 2)
	q0.cc.onCNP()
	after1 := q0.Rate()
	q0.cc.onCNP() // immediately again: inside MinDecreaseNs
	if q0.Rate() != after1 {
		t.Fatal("second cut inside the 50us window was not suppressed")
	}
}

func TestDCQCNRecoversAfterCongestion(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := topo.Testbed(eng, 2)
	cfg := DefaultConfig()
	cfg.DCQCN = true
	r0 := NewRNIC(n.Hosts[0], cfg)
	r1 := NewRNIC(n.Hosts[1], cfg)
	q0 := r0.CreateQP()
	qd := r1.CreateQP()
	q0.Connect(n.Hosts[1].IP, qd.QPN)
	q0.cc.onCNP()
	cut := q0.Rate()
	// Keep traffic flowing so byte-counter increase events occur too.
	var repost func()
	repost = func() { q0.PostSend(1<<20, repost) }
	repost()
	eng.RunUntil(50 * sim.Millisecond)
	if q0.Rate() <= cut {
		t.Fatalf("rate %.1fG did not recover from cut %.1fG", q0.Rate()/1e9, cut/1e9)
	}
	if q0.Rate() > n.LinkRate {
		t.Fatal("rate exceeded line rate")
	}
}

func TestDCQCNAlphaDecays(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	n := topo.Testbed(eng, 2)
	cfg := DefaultConfig()
	cfg.DCQCN = true
	r0 := NewRNIC(n.Hosts[0], cfg)
	q0 := r0.CreateQP()
	q0.Connect(n.Hosts[1].IP, 2)
	q0.cc.onCNP()
	a0 := q0.cc.alpha
	eng.RunUntil(5 * sim.Millisecond)
	// The decay timer is virtual: ticks apply when the state is observed.
	q0.cc.catchUp()
	if q0.cc.alpha >= a0 {
		t.Fatalf("alpha %.4f did not decay from %.4f", q0.cc.alpha, a0)
	}
}
