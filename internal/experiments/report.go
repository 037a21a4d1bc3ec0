package experiments

import (
	"fmt"

	"antdensity/internal/results"
)

// Report is the structured output builder handed to every experiment
// body. For an experiment with a grid, the table is already written —
// the sweep of the registered grid — and the body reads its columns
// back by name to compute metrics, the machine-checkable scalars the
// test suite asserts on, and notes, the free-form observations printed
// under the table. Bodies never format strings or write to an
// io.Writer — rendering is the harness's job (text via
// internal/expfmt, JSON and CSV via internal/results).
type Report struct {
	res *results.Result
}

// Table appends a new unnamed series with the given column headers and
// returns it for row accumulation: the own table of an experiment
// without a grid.
func (r *Report) Table(headers ...string) *results.Series {
	return r.res.AddSeries("", results.Cols(headers...)...)
}

// Floats returns the named column of the run's table, one value per
// row in grid order: a float cell's value, an int cell's as a float64.
func (r *Report) Floats(name string) []float64 {
	cells := r.column(name)
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i], _ = c.Number()
	}
	return out
}

// Labels returns the named column of the run's table in each cell's
// exact text: a label as is, a bool as "true" or "false", a number as
// strconv writes it in full.
func (r *Report) Labels(name string) []string {
	cells := r.column(name)
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.Exact()
	}
	return out
}

// column returns the named column's cells. An unknown name panics: it
// is a programming error in the body.
func (r *Report) column(name string) []results.Cell {
	if len(r.res.Series) > 0 {
		s := r.res.Series[0]
		for j, c := range s.Columns {
			if c.Name == name {
				out := make([]results.Cell, len(s.Rows))
				for i, row := range s.Rows {
					out[i] = row[j]
				}
				return out
			}
		}
	}
	panic(fmt.Sprintf("experiments: %s table has no column %q", r.res.ID, name))
}

// SetMetric records a named scalar outcome.
func (r *Report) SetMetric(name string, v float64) { r.res.SetMetric(name, v) }

// Metric returns a previously recorded metric and whether it was set.
func (r *Report) Metric(name string) (float64, bool) { return r.res.Metric(name) }

// Notef appends a formatted note line.
func (r *Report) Notef(format string, args ...any) { r.res.Notef(format, args...) }
