// Package exp implements the paper's evaluation (§6): every table and
// figure has a workload generator and a runner that reproduces the
// artifact's rows or series, at laptop scale by default and near paper
// scale with Full.
//
// Per-experiment index (§6 in the paper-section map, docs/ARCHITECTURE.md):
//
//   - Table2 / Fig6c — PIA over the four key-value stores (§6.2.3)
//   - Table3 — generated fat-tree configurations (§6.3.1)
//   - Fig6a — common network dependency case study (§6.2.1)
//   - Fig6b — common hardware dependency case study (§6.2.2)
//   - Fig7 — minimal RG vs failure sampling accuracy/cost (§6.3.1)
//   - Fig8 — P-SOP vs KS protocol overheads (§6.3.2)
//   - Fig9 — SIA vs PIA computational cost (§6.3.3)
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a generic rendered result: a header and rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Append adds a row, formatting each cell with %v.
func (t *Table) Append(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "--- %s ---\n", t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// timed measures one function call.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}
