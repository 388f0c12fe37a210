package simnet

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestFIBTable pins the dense FIB's semantics: routes install at any
// address order, unrouted addresses (gaps, either side of the span,
// multicast) have no route, equal port sets share one interned copy that
// no caller's slice aliases and no AddRoute writes through, and ResetFIB
// drops the routes and the set table.
func TestFIBTable(t *testing.T) {
	sw := NewSwitch(sim.New(1), "s0")
	if sw.Route(1) != nil {
		t.Fatal("a new switch has a route")
	}
	sw.AddRoute(5, 0)
	sw.AddRoute(5, 3)
	sw.AddRoute(2, 1) // below the span: the table widens downward
	shared := []int{4, 6}
	sw.SetRoutes(7, shared)
	sw.SetRoutes(8, shared)
	sw.SetRoutes(10, []int{4, 6})
	sw.AddRoute(8, 9)
	sw.SetRoutes(11, []int{6, 4}) // same ports, other order: another set
	shared[0] = 99                // the caller's slice stays the caller's
	for _, c := range []struct {
		dst  Addr
		want []int
	}{
		{1, nil}, {2, []int{1}}, {3, nil}, {5, []int{0, 3}}, {6, nil},
		{7, []int{4, 6}}, {8, []int{4, 6, 9}}, {9, nil}, {10, []int{4, 6}},
		{11, []int{6, 4}}, {MulticastBase + 2, nil},
	} {
		if got := sw.Route(c.dst); !slices.Equal(got, c.want) || (c.want == nil && got != nil) {
			t.Fatalf("Route(%d) = %v, want %v", c.dst, got, c.want)
		}
	}
	if &sw.Route(7)[0] != &sw.Route(10)[0] {
		t.Fatal("equal port sets must share one backing array")
	}
	if _, sets := sw.FIBSize(); sets != 6 {
		t.Fatalf("FIB holds %d sets, want 6: {1} {0} {0 3} {4 6} {4 6 9} {6 4}", sets)
	}
	sw.ResetFIB(5, 4)
	for dst := Addr(0); dst < 12; dst++ {
		if r := sw.Route(dst); r != nil {
			t.Fatalf("Route(%d) = %v after ResetFIB", dst, r)
		}
	}
	if b, sets := sw.FIBSize(); b != 8 || sets != 0 {
		t.Fatalf("after ResetFIB(5, 4): %d entry bytes and %d sets, want 8 and 0", b, sets)
	}
	sw.SetRoutes(6, []int{4, 6})
	sw.AddRoute(12, 2) // past the sized span
	if !slices.Equal(sw.Route(6), []int{4, 6}) || !slices.Equal(sw.Route(12), []int{2}) || sw.Route(7) != nil {
		t.Fatal("routes after ResetFIB did not install")
	}
	sw.SetRoutes(6, nil)
	if sw.Route(6) != nil {
		t.Fatal("SetRoutes(nil) must remove the route")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("routing addresses 2^31 apart must panic, not allocate the span")
		}
	}()
	sw.AddRoute(MulticastBase, 0)
}

// TestFIBSetTableFull: a FIB entry is 16 bits with 0 reserved for no
// route, so the 65,536th distinct port set must panic rather than wrap
// onto another destination's set. The table is filled directly: interning
// 65,535 distinct sets one by one scans quadratically (seconds).
func TestFIBSetTableFull(t *testing.T) {
	sw := NewSwitch(sim.New(1), "s0")
	for i := 1; i <= maxFIBSets; i++ {
		sw.sets = append(sw.sets, []int{i})
	}
	sw.SetRoutes(1, []int{maxFIBSets}) // not new: interns to the last set
	if got := sw.Route(1); !slices.Equal(got, []int{maxFIBSets}) {
		t.Fatalf("Route(1) = %v, want [%d]", got, maxFIBSets)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("the 65,536th distinct port set must panic")
		}
	}()
	sw.SetRoutes(2, []int{0})
}

// TestPortSizeBound guards the per-port footprint every cluster pays
// thousands of times over: a Port must stay under 1 KiB, so per-port
// histograms or other large inline state cannot creep back in.
func TestPortSizeBound(t *testing.T) {
	if sz := unsafe.Sizeof(Port{}); sz >= 1024 {
		t.Fatalf("Port is %d bytes, want < 1024", sz)
	}
}
