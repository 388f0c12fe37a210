// Package exp provides the experiment helpers shared by internal/paper, the
// root benchmarks and the CLIs: table formatting, byte-size labels, and the
// flow-size-aware cell sizing rule from DESIGN.md §1.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable result table: one row per configuration, one column
// per scheme/metric — the same rows/series the paper's figures report.
type Table struct {
	Title   string
	Columns []string
	rows    []row
}

type row struct {
	label  string
	values []string
}

// NewTable creates a table with the given title and column headers (the
// first header labels the row key).
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row of already-formatted cells.
func (t *Table) Add(label string, cells ...string) {
	t.rows = append(t.rows, row{label: label, values: cells})
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		if len(r.label) > widths[0] {
			widths[0] = len(r.label)
		}
		for i, v := range r.values {
			if i+1 < len(widths) && len(v) > widths[i+1] {
				widths[i+1] = len(v)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	for _, r := range t.rows {
		line(append([]string{r.label}, r.values...))
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// FormatBytes renders a byte count the way the paper labels its x-axes
// (64B, 8KB, 256MB, ...).
func FormatBytes(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// CellFor implements the DESIGN.md §1 cell-size rule: large flows are
// simulated with a bigger packet cell so event counts stay tractable. The
// cell is the smallest power-of-two multiple of baseMTU that keeps the flow
// under maxPackets packets, capped at 1MB.
func CellFor(flowBytes, baseMTU, maxPackets int) int {
	cell := baseMTU
	for cell < 1<<20 && flowBytes/cell > maxPackets {
		cell <<= 1
	}
	return cell
}

// ApplyCell configures a transport for a flow simulated at cell
// granularity: the MTU follows CellFor, and the go-back-N window is
// rescaled to keep a constant byte depth (~1MB) so a loss costs the same
// retransmission volume regardless of cell size (DESIGN.md §1).
func ApplyCell(mtu *int, windowPkts *int, flowBytes, baseMTU, maxPackets int) {
	*mtu = CellFor(flowBytes, baseMTU, maxPackets)
	w := (1 << 20) / *mtu
	if w < 32 {
		w = 32
	}
	if w < *windowPkts {
		*windowPkts = w
	}
}
