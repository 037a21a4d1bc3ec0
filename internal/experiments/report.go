package experiments

import "antdensity/internal/results"

// Report is the structured output builder handed to every experiment
// body: tables become typed results.Series, metrics become the
// machine-checkable scalars the test suite asserts on, and notes
// become the free-form observations printed under the tables. Bodies
// never format strings or write to an io.Writer — rendering is the
// harness's job (text via internal/expfmt, JSON and CSV via
// internal/results).
type Report struct {
	res *results.Result
}

// Table appends a new unnamed series with the given column headers and
// returns it for row accumulation. Most experiments emit exactly one.
func (r *Report) Table(headers ...string) *results.Series {
	return r.res.AddSeries("", results.Cols(headers...)...)
}

// SetMetric records a named scalar outcome.
func (r *Report) SetMetric(name string, v float64) { r.res.SetMetric(name, v) }

// Metric returns a previously recorded metric and whether it was set.
func (r *Report) Metric(name string) (float64, bool) { return r.res.Metric(name) }

// Notef appends a formatted note line.
func (r *Report) Notef(format string, args ...any) { r.res.Notef(format, args...) }
