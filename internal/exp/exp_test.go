package exp

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "size", "a", "b")
	tab.Add("64B", "1.0", "2.0")
	tab.Add("1KB", "3.142", "2.718")
	s := tab.String()
	if !strings.Contains(s, "== demo ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(s, "64B") || !strings.Contains(s, "3.142") {
		t.Fatalf("missing cells:\n%s", s)
	}
	// The title, the header, and one line per row.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("line count %d", len(lines))
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int]string{
		64:        "64B",
		1 << 10:   "1KB",
		8 << 10:   "8KB",
		1 << 20:   "1MB",
		512 << 20: "512MB",
		1 << 30:   "1GB",
		1500:      "1500B",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestCellFor(t *testing.T) {
	if c := CellFor(1<<20, 1024, 4096); c != 1024 {
		t.Fatalf("small flow should keep base MTU, got %d", c)
	}
	c := CellFor(1<<30, 1024, 2048)
	if (1<<30)/c > 2048 {
		t.Fatalf("cell %d leaves too many packets", c)
	}
	if c > 1<<20 {
		t.Fatalf("cell %d exceeds the 1MB cap", c)
	}
}

// Property: the cell is always a power-of-two multiple of the base MTU, at
// most 1MB, and honors maxPackets whenever the cap allows it.
func TestCellForProperty(t *testing.T) {
	f := func(flowRaw uint32, mtuExp uint8) bool {
		flow := int(flowRaw%(1<<30)) + 1
		base := 256 << (mtuExp % 4) // 256..2048
		cell := CellFor(flow, base, 2048)
		if cell%base != 0 || cell > 1<<20 {
			return false
		}
		if cell < 1<<20 && flow/cell > 2048 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
