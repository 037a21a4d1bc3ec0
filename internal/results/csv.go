package results

import (
	"encoding/csv"
	"io"
)

// This file is the CSV renderer of the results model. Values are
// written at full precision (Cell.Exact), not the compacted display
// form the text tables use. Columns whose cells carry confidence
// half-widths gain "<name> ci95" and "<name> n" subcolumns, so a
// sweep's uncertainty survives the flattening.

// WriteCSV writes every series of r as a CSV block; multiple series
// are separated by a blank line.
func WriteCSV(w io.Writer, r *Result) error {
	for i, s := range r.Series {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := writeSeriesCSV(w, s); err != nil {
			return err
		}
	}
	return nil
}

// writeSeriesCSV writes one series with its header row.
func writeSeriesCSV(w io.Writer, s *Series) error {
	cw := csv.NewWriter(w)
	withCI := CIColumns(s)
	header := make([]string, 0, len(s.Columns))
	for ci, col := range s.Columns {
		header = append(header, col.Name)
		if withCI[ci] {
			header = append(header, col.Name+" ci95", col.Name+" n")
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, cells := range s.Rows {
		row = row[:0]
		for ci, c := range cells {
			row = append(row, c.Exact())
			if ci < len(withCI) && withCI[ci] {
				ci95, n := CIFields(c)
				row = append(row, ci95, n)
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CIColumns reports, per column, whether the column declares a CI or
// any of its cells carries one — the tabular writers give those
// columns ci95/n subcolumns.
func CIColumns(s *Series) []bool {
	out := make([]bool, len(s.Columns))
	for ci, col := range s.Columns {
		out[ci] = col.CI
	}
	for _, row := range s.Rows {
		for ci, c := range row {
			if ci < len(out) && c.HasCI {
				out[ci] = true
			}
		}
	}
	return out
}

// CIFields renders a cell's ci95 and n annotations for tabular
// writers; cells without a CI yield empty fields.
func CIFields(c Cell) (ci95, n string) {
	if !c.HasCI {
		return "", ""
	}
	return Float(c.CI95).Exact(), Int(int64(c.N)).Exact()
}
