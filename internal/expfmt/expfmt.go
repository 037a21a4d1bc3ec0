// Package expfmt renders the experiment harness's output tables. Every
// experiment emits rows through a Table so that paper-vs-measured
// series print in a consistent fixed-width format. CSV output is
// internal/results' WriteCSV.
package expfmt

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows under a fixed header and renders them
// aligned. The zero value is unusable; construct with NewTable.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row. Values are formatted with %v; float64 values
// are compacted to a short fixed precision.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = formatCell(v)
	}
	t.rows = append(t.rows, row)
}

// formatCell renders one value for display.
func formatCell(v any) string {
	switch x := v.(type) {
	case float64:
		return formatFloat(x)
	case float32:
		return formatFloat(float64(x))
	default:
		return fmt.Sprintf("%v", v)
	}
}

// formatFloat picks a compact representation: scientific for very
// small or large magnitudes, fixed otherwise.
func formatFloat(x float64) string {
	abs := x
	if abs < 0 {
		abs = -abs
	}
	switch {
	case x == 0:
		return "0"
	case abs < 1e-4 || abs >= 1e7:
		return fmt.Sprintf("%.3e", x)
	case abs < 1:
		return fmt.Sprintf("%.5f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// Render writes the table to w in aligned fixed-width columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
