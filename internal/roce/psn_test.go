package roce

import (
	"testing"
	"testing/quick"
)

func TestWirePSN(t *testing.T) {
	t.Parallel()
	if WirePSN(0) != 0 {
		t.Fatal("WirePSN(0)")
	}
	if WirePSN(PSNSpace) != 0 {
		t.Fatal("WirePSN(2^24) should wrap to 0")
	}
	if WirePSN(PSNSpace+5) != 5 {
		t.Fatal("WirePSN(2^24+5)")
	}
}

func TestReconstructExactAtRef(t *testing.T) {
	t.Parallel()
	for _, ref := range []uint64{0, 1, 100, PSNSpace - 1, PSNSpace, 3 * PSNSpace / 2, 10 * PSNSpace} {
		if got := ReconstructPSN(ref, WirePSN(ref)); got != ref {
			t.Fatalf("ReconstructPSN(%d, wire) = %d", ref, got)
		}
	}
}

func TestReconstructAcrossWrap(t *testing.T) {
	t.Parallel()
	ref := uint64(PSNSpace - 10)
	v := uint64(PSNSpace + 10) // 20 ahead, wire wraps to 10
	if got := ReconstructPSN(ref, WirePSN(v)); got != v {
		t.Fatalf("forward across wrap: got %d, want %d", got, v)
	}
	ref = uint64(PSNSpace + 10)
	v = uint64(PSNSpace - 10)
	if got := ReconstructPSN(ref, WirePSN(v)); got != v {
		t.Fatalf("backward across wrap: got %d, want %d", got, v)
	}
}

// Property: reconstruction inverts WirePSN for any offset within half the
// PSN space of the reference.
func TestReconstructProperty(t *testing.T) {
	t.Parallel()
	f := func(refRaw uint64, deltaRaw int32) bool {
		ref := refRaw % (1 << 40)
		delta := int64(deltaRaw) % (PSNSpace / 2)
		v := int64(ref) + delta
		if v < 0 {
			return true // skip: virtual PSNs are non-negative
		}
		return ReconstructPSN(ref, WirePSN(uint64(v))) == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPSNLess(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b uint32
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{psnMask, 0, true},  // wrap: 2^24-1 < 0
		{0, psnMask, false}, // and not the reverse
		{0, PSNSpace/2 - 1, true},
	}
	for _, c := range cases {
		if got := PSNLess(c.a, c.b); got != c.want {
			t.Errorf("PSNLess(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: PSNLess is antisymmetric for distinct wire PSNs outside the
// ambiguous half-space boundary.
func TestPSNLessAntisymmetric(t *testing.T) {
	t.Parallel()
	f := func(a, b uint32) bool {
		a &= psnMask
		b &= psnMask
		if a == b {
			return !PSNLess(a, b) && !PSNLess(b, a)
		}
		if (b-a)&psnMask == PSNSpace/2 {
			return true // boundary is implementation-defined, skip
		}
		return PSNLess(a, b) != PSNLess(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
