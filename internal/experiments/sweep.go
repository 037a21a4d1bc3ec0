package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"antdensity/internal/results"
)

// This file is the sweep engine: it executes an axis cross-product
// through an experiment's Cell function, on the shared parallel trial
// runner, and streams one typed results row per grid cell. Run is the
// sweep of the registered grid; the CLI's sweep overrides axes by
// name, with no per-experiment code change.

// sweepMemo caches sweep-wide shared measurements across cell
// invocations; see sweepShared.
//
//antlint:globalok memoization cache; values are deterministic functions of the (experiment, seed, mode) key, so hits and misses are observationally identical
var sweepMemo sync.Map

// sweepShared memoizes a measurement shared by every cell of a sweep
// — e.g. a Monte Carlo curve whose prefix serves all smaller horizons
// — keyed by (name, seed, mode), the inputs that change its value.
// name is the experiment ID, followed by "/" and a qualifier when one
// experiment shares several (E11 keeps one curve per topology). The
// first cell computes it (sized to the whole active axis via
// activeMaxInt); later cells, and the body that summarizes the run's
// rows, reuse it. covers reports whether a cached value satisfies the
// caller; a rejected or missing entry is recomputed. Cached values are
// deterministic functions of the key, so concurrent recomputation and
// last-write-wins storage are benign.
func sweepShared[T any](name string, p Params, covers func(T) bool, measure func() (T, error)) (T, error) {
	key := fmt.Sprintf("%s/%d/%t", name, p.Seed, p.Quick)
	if v, ok := sweepMemo.Load(key); ok {
		if t, ok := v.(T); ok && covers(t) {
			return t, nil
		}
	}
	t, err := measure()
	if err != nil {
		var zero T
		return zero, err
	}
	sweepMemo.Store(key, t)
	return t, nil
}

// SweepRow is one completed cell of a sweep: the grid point and the
// experiment's measurements at it.
type SweepRow struct {
	Point Point
	Cells []results.Cell
}

// AxisValues returns the row's grid coordinates as typed cells, one
// per axis in declaration order.
func (r SweepRow) AxisValues() []results.Cell {
	out := make([]results.Cell, r.Point.Len())
	for i := range out {
		out[i] = r.Point.Axis(i).Cell(r.Point.Value(i))
	}
	return out
}

// SweepColumns returns the columns of a sweep's output: one per axis,
// then the experiment's measurement columns.
func (e Experiment) SweepColumns() []results.Column {
	out := make([]results.Column, 0, len(e.Axes)+len(e.Columns))
	for _, a := range e.Axes {
		out = append(out, results.Column{Name: a.Name, Unit: a.Unit})
	}
	return append(out, e.Columns...)
}

// SweepableIDs returns the IDs of every experiment that supports
// sweeps.
func SweepableIDs() []string {
	var out []string
	for _, e := range All() {
		if e.Sweepable() {
			out = append(out, e.ID)
		}
	}
	return out
}

// Sweep executes e.Cell over the cross-product of e's axes with the
// given per-axis value overrides (nil or missing entries keep the
// registered defaults for p's mode), invoking emit for each completed
// row in row-major order. Cells run their trials through the shared
// parallel runner, so every value is bit-identical for every worker
// count.
func (e Experiment) Sweep(p Params, overrides map[string][]string, emit func(SweepRow) error) error {
	if !e.Sweepable() {
		return fmt.Errorf("experiments: %s declares no parameter grid; sweepable experiments: %s",
			e.ID, strings.Join(SweepableIDs(), ", "))
	}
	values := make([][]string, len(e.Axes))
	used := map[string]bool{}
	for i, a := range e.Axes {
		if ov, ok := overrides[a.Name]; ok {
			for _, v := range ov {
				if err := a.Check(v); err != nil {
					return err
				}
			}
			values[i] = ov
			used[a.Name] = true
		} else {
			values[i] = a.Values(p.Quick)
		}
	}
	unknown := make([]string, 0, len(overrides))
	for name := range overrides {
		if !used[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("experiments: %s has no axis %q; axes: %s",
			e.ID, unknown[0], axisNames(e.Axes))
	}
	registered := make([][]string, len(e.Axes))
	for i, a := range e.Axes {
		registered[i] = a.Values(p.Quick)
	}
	return gridOver(e.Axes, values, registered, func(pt Point) error {
		cells, err := runCell(e, p, pt)
		if err != nil {
			return err
		}
		if len(cells) != len(e.Columns) {
			return fmt.Errorf("experiments: %s cell returned %d values, want %d columns",
				e.ID, len(cells), len(e.Columns))
		}
		return emit(SweepRow{Point: pt, Cells: cells})
	})
}

// runCell invokes e.Cell, converting a panic into an error with the
// grid point named: user-supplied axis values can reach library
// validation panics, and a sweep must fail with a message, not a
// stack trace.
func runCell(e Experiment, p Params, pt Point) (cells []results.Cell, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: %s cell at %s panicked: %v", e.ID, pointLabel(pt), r)
		}
	}()
	return e.Cell(p, pt)
}

// pointLabel renders a grid point as "name=value" pairs for error
// messages.
func pointLabel(pt Point) string {
	parts := make([]string, pt.Len())
	for i := range parts {
		parts[i] = pt.Axis(i).Name + "=" + pt.Value(i)
	}
	return strings.Join(parts, ", ")
}

// SweepSpecs parses CLI-style axis specs ("name=v1,v2,v3" or
// "name=lo:hi:step") and runs Sweep with them.
func (e Experiment) SweepSpecs(p Params, specs []string, emit func(SweepRow) error) error {
	if !e.Sweepable() {
		return fmt.Errorf("experiments: %s declares no parameter grid; sweepable experiments: %s",
			e.ID, strings.Join(SweepableIDs(), ", "))
	}
	overrides := map[string][]string{}
	for _, spec := range specs {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			return fmt.Errorf("experiments: axis spec %q must be name=values", spec)
		}
		ax, found := e.axisByName(name)
		if !found {
			return fmt.Errorf("experiments: %s has no axis %q; axes: %s", e.ID, name, axisNames(e.Axes))
		}
		vals, err := ExpandAxisSpec(ax, rest)
		if err != nil {
			return err
		}
		overrides[name] = append(overrides[name], vals...)
	}
	return e.Sweep(p, overrides, emit)
}

// axisByName finds an axis declaration by name.
func (e Experiment) axisByName(name string) (Axis, bool) {
	for _, a := range e.Axes {
		if a.Name == name {
			return a, true
		}
	}
	return Axis{}, false
}

// ExpandAxisSpec expands one axis value spec: either an explicit
// comma-separated list ("0.01,0.05,0.1") or, for numeric axes, an
// inclusive range "lo:hi:step" ("100:1000:100" is 100, 200, ..., 1000).
func ExpandAxisSpec(a Axis, spec string) ([]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("experiments: axis %q spec is empty", a.Name)
	}
	if strings.Contains(spec, ":") {
		if a.Kind == AxisString {
			return nil, fmt.Errorf("experiments: axis %q is categorical; ranges apply to numeric axes only", a.Name)
		}
		return expandRange(a, spec)
	}
	parts := strings.Split(spec, ",")
	out := make([]string, 0, len(parts))
	for _, v := range parts {
		v = strings.TrimSpace(v)
		if v == "" {
			return nil, fmt.Errorf("experiments: axis %q spec %q has an empty value", a.Name, spec)
		}
		if err := a.Check(v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// expandRange expands a numeric lo:hi:step spec under the axis's kind.
func expandRange(a Axis, spec string) ([]string, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("experiments: axis %q range %q must be lo:hi:step", a.Name, spec)
	}
	if a.Kind == AxisInt {
		lo, err1 := strconv.Atoi(parts[0])
		hi, err2 := strconv.Atoi(parts[1])
		step, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("experiments: axis %q range %q needs int lo:hi:step", a.Name, spec)
		}
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("experiments: axis %q range %q needs step > 0 and hi >= lo", a.Name, spec)
		}
		var out []string
		for v := lo; v <= hi; v += step {
			out = append(out, strconv.Itoa(v))
		}
		return out, nil
	}
	lo, err1 := strconv.ParseFloat(parts[0], 64)
	hi, err2 := strconv.ParseFloat(parts[1], 64)
	step, err3 := strconv.ParseFloat(parts[2], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("experiments: axis %q range %q needs numeric lo:hi:step", a.Name, spec)
	}
	if step <= 0 || hi < lo {
		return nil, fmt.Errorf("experiments: axis %q range %q needs step > 0 and hi >= lo", a.Name, spec)
	}
	var out []string
	tol := step * 1e-9
	for i := 0; ; i++ {
		v := lo + float64(i)*step
		if v > hi+tol {
			break
		}
		out = append(out, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return out, nil
}
