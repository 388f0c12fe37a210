package simnet

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestFIBTable pins the dense FIB's semantics: routes install at any
// address order, unrouted addresses (gaps, either side of the span,
// multicast) have no route, SetRoutes shares its slice without letting a
// later AddRoute write through it, and ResetFIB drops everything.
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
	sw.AddRoute(8, 9)
	for _, c := range []struct {
		dst  Addr
		want []int
	}{
		{1, nil}, {2, []int{1}}, {3, nil}, {5, []int{0, 3}}, {6, nil},
		{7, []int{4, 6}}, {8, []int{4, 6, 9}}, {9, nil}, {MulticastBase + 2, nil},
	} {
		if got := sw.Route(c.dst); !slices.Equal(got, c.want) || (c.want == nil && got != nil) {
			t.Fatalf("Route(%d) = %v, want %v", c.dst, got, c.want)
		}
	}
	if !slices.Equal(shared, []int{4, 6}) || &sw.Route(7)[0] != &shared[0] {
		t.Fatal("SetRoutes must alias the caller's slice and AddRoute must not write through it")
	}
	sw.ResetFIB(5, 4)
	for dst := Addr(0); dst < 12; dst++ {
		if r := sw.Route(dst); r != nil {
			t.Fatalf("Route(%d) = %v after ResetFIB", dst, r)
		}
	}
	sw.SetRoutes(6, shared)
	sw.AddRoute(12, 2) // past the sized span
	if !slices.Equal(sw.Route(6), shared) || !slices.Equal(sw.Route(12), []int{2}) || sw.Route(7) != nil {
		t.Fatal("routes after ResetFIB did not install")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("routing addresses 2^31 apart must panic, not allocate the span")
		}
	}()
	sw.AddRoute(MulticastBase, 0)
}

// TestPortSizeBound guards the per-port footprint every cluster pays
// thousands of times over: a Port must stay under 1 KiB, so per-port
// histograms or other large inline state cannot creep back in.
func TestPortSizeBound(t *testing.T) {
	if sz := unsafe.Sizeof(Port{}); sz >= 1024 {
		t.Fatalf("Port is %d bytes, want < 1024", sz)
	}
}
