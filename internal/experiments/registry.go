// Package experiments contains the reproduction harness: one
// registered experiment per quantitative claim of the paper, each
// regenerating the corresponding series (the paper is an extended
// abstract with schematic figures only, so the "tables and figures"
// to reproduce are the theorem-predicted scalings; see the README's
// experiment index).
//
// Experiments are declarative: each registry entry carries its
// parameter axes (densities, horizons, grid sizes, policies) as data
// (Axis), a Cell function that measures one point of that grid, and a
// Body that summarizes the rows into metrics and notes. A run is the
// sweep of the registered grid: Experiment.Sweep runs every point
// through Cell on the shared parallel trial runner, the rows become
// the experiment's one table, and Body reads them back by column name.
// The CLI's sweep runs the same cells over user-supplied axis
// cross-products. Output is structured — a results.Result of typed
// series, metrics, and notes — which the harness renders as text
// (internal/expfmt), JSON, or CSV. The two experiments without a grid
// (E20, E22) build their own tables in Body.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"antdensity/internal/expfmt"
	"antdensity/internal/results"
)

// Params configures an experiment run.
type Params struct {
	// Seed drives all randomness; runs are reproducible per seed.
	Seed uint64
	// Quick reduces trial counts and sweep ranges so the experiment
	// finishes in well under a second — used by tests. Full runs are
	// sized for minutes at most.
	Quick bool
	// Out receives the experiment's formatted tables; nil discards
	// them.
	Out io.Writer
	// Workers bounds the trial runner's concurrency; <= 0 means
	// GOMAXPROCS. Every aggregate is bit-identical for every value —
	// see RunTrials.
	Workers int
}

// runTrials executes spec under p's worker budget.
func (p Params) runTrials(spec TrialSpec) (*ExperimentResult, error) {
	return RunTrials(spec, RunConfig{Workers: p.Workers})
}

func (p Params) out() io.Writer {
	if p.Out == nil {
		return io.Discard
	}
	return p.Out
}

// Outcome carries an experiment's machine-checkable results.
type Outcome struct {
	// Metrics maps metric names (documented per experiment) to
	// measured values.
	Metrics map[string]float64
	// Notes are free-form observations included in reports.
	Notes []string
}

// CellFunc measures one point of an experiment's axis grid and returns
// one typed cell per entry of the experiment's Columns. Cell functions
// run their trials through the shared parallel runner, so sweep
// results are bit-identical for every worker count.
type CellFunc func(p Params, pt Point) ([]results.Cell, error)

// Experiment is a registered reproduction experiment.
type Experiment struct {
	// ID is the short identifier (e.g. "E02") used by the CLI and
	// bench targets.
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the paper statement being reproduced.
	Claim string
	// Axes declare the experiment's parameter grid as data; a run
	// sweeps their registered values and the CLI's sweep overrides
	// them by name. Nil for experiments without free parameters.
	Axes []Axis
	// Columns name the measurements Cell returns, in order.
	Columns []results.Column
	// Cell measures one point of Axes' cross-product; nil disables
	// sweeps for this experiment.
	Cell CellFunc
	// Body turns the run's table into metrics and notes through rep.
	// An experiment without a grid builds its own table here.
	Body func(p Params, rep *Report) error
}

// RunResult executes the experiment and returns its structured result:
// the sweep of the registered grid as its table, under SweepColumns,
// then Body's metrics and notes.
func (e Experiment) RunResult(p Params) (*results.Result, error) {
	if e.Body == nil {
		return nil, fmt.Errorf("experiments: %s has no body", e.ID)
	}
	rep := &Report{res: &results.Result{
		ID:    e.ID,
		Title: e.Title,
		Claim: e.Claim,
		Seed:  p.Seed,
		Quick: p.Quick,
	}}
	if e.Sweepable() {
		tb := rep.res.AddSeries("", e.SweepColumns()...)
		if err := e.Sweep(p, nil, func(r SweepRow) error {
			tb.AddCells(append(r.AxisValues(), r.Cells...)...)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := e.Body(p, rep); err != nil {
		return nil, err
	}
	return rep.res, nil
}

// Run executes the experiment, renders its tables and notes as text to
// p.Out, and returns the machine-checkable outcome.
func (e Experiment) Run(p Params) (*Outcome, error) {
	res, err := e.RunResult(p)
	if err != nil {
		return nil, err
	}
	if err := expfmt.RenderResult(p.out(), res); err != nil {
		return nil, err
	}
	return &Outcome{Metrics: res.Metrics, Notes: res.Notes}, nil
}

// Sweepable reports whether the experiment declares a parameter grid
// that the sweep engine can execute.
func (e Experiment) Sweepable() bool { return e.Cell != nil && len(e.Axes) > 0 }

//antlint:globalok write-once at package init via register; read-only afterwards
var registry = map[string]Experiment{}

// register adds an experiment to the global registry; duplicate IDs
// panic at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate ID %q", e.ID))
	}
	registry[e.ID] = e
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	//antlint:orderok collected values are sorted by ID below, and IDs are unique (registry keys)
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns every registered experiment ID in sorted order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// pick returns full unless Quick, in which case quick.
func pick(p Params, full, quick int) int {
	if p.Quick {
		return quick
	}
	return full
}
