package expfmt

import (
	"fmt"
	"io"
	"strconv"

	"antdensity/internal/results"
)

// This file makes expfmt the text renderer over the typed results
// model: experiments build results.Result values and RenderResult
// turns them into the fixed-width tables and note lines the harness
// has always printed. The cell formatting is byte-identical to what
// experiments produced when they formatted raw values through
// Table.AddRow, so the golden files lock the refactor.

// RenderResult writes r's series as aligned tables in order, followed
// by its notes, one per line.
func RenderResult(w io.Writer, r *results.Result) error {
	for _, s := range r.Series {
		if err := RenderSeries(w, s); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	return nil
}

// RenderSeries writes one series as an aligned fixed-width table. A
// column whose cells carry a 95% CI expands into "<name>",
// "<name> ci95" and "<name> n", as the CSV and sweep writers expand
// it; a cell without one leaves both blank.
func RenderSeries(w io.Writer, s *results.Series) error {
	withCI := results.CIColumns(s)
	var headers []string
	for i, c := range s.Columns {
		headers = append(headers, c.Name)
		if withCI[i] {
			headers = append(headers, c.Name+" ci95", c.Name+" n")
		}
	}
	tb := NewTable(headers...)
	for _, row := range s.Rows {
		var cells []any
		for i, c := range row {
			cells = append(cells, CellText(c))
			if withCI[i] {
				ci95, n := "", ""
				if c.HasCI {
					ci95, n = formatFloat(c.CI95), strconv.Itoa(c.N)
				}
				cells = append(cells, ci95, n)
			}
		}
		tb.AddRow(cells...)
	}
	return tb.Render(w)
}

// CellText renders one results cell exactly as the tables historically
// formatted the raw value: floats through the compact float format,
// integers and booleans verbatim, labels as-is.
func CellText(c results.Cell) string {
	switch c.Kind {
	case results.KindFloat:
		return formatFloat(c.Value)
	case results.KindInt:
		return strconv.FormatInt(c.Int, 10)
	case results.KindBool:
		return strconv.FormatBool(c.Bool)
	default:
		return c.Text
	}
}
