package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"antdensity/internal/results"
)

// This file holds the declarative parameter-grid layer: Axis (one
// experiment parameter dimension as data), Point (one cell of an axis
// cross-product), and gridOver (the one walk over a cross-product,
// which the sweep engine runs). Axis values are canonical strings so
// the CLI sweep engine can override them without knowing each
// experiment's types; Point's typed accessors parse them back.

// AxisKind is the value type of an axis.
type AxisKind uint8

const (
	// AxisFloat values parse as float64 (densities, ratios).
	AxisFloat AxisKind = iota
	// AxisInt values parse as int (horizons, sizes, walker counts).
	AxisInt
	// AxisString values are categorical labels (topologies, variants).
	AxisString
)

// String names the kind for error messages.
func (k AxisKind) String() string {
	switch k {
	case AxisFloat:
		return "float"
	case AxisInt:
		return "int"
	default:
		return "string"
	}
}

// Axis declares one experiment parameter dimension as data.
type Axis struct {
	// Name identifies the axis in sweep overrides (e.g. "d", "steps").
	Name string
	// Kind is the value type; sweep overrides are validated against it.
	Kind AxisKind
	// Unit optionally names the axis unit for structured output.
	Unit string
	// Full are the default full-mode values; Quick (if non-nil)
	// replaces them in quick mode.
	Full  []string
	Quick []string
}

// FloatAxis declares a float-valued axis; quick may be nil to reuse
// the full values in quick mode.
func FloatAxis(name string, full, quick []float64) Axis {
	return Axis{Name: name, Kind: AxisFloat, Full: formatFloats(full), Quick: formatFloats(quick)}
}

// IntAxis declares an int-valued axis; quick may be nil to reuse the
// full values in quick mode.
func IntAxis(name string, full, quick []int) Axis {
	return Axis{Name: name, Kind: AxisInt, Full: formatInts(full), Quick: formatInts(quick)}
}

// IntRangeAxis declares an int-valued axis spanning [1, full] in full
// mode and [1, quick] in quick mode — the shape of the walk
// experiments' per-step tables.
func IntRangeAxis(name string, full, quick int) Axis {
	return Axis{Name: name, Kind: AxisInt, Full: formatInts(intRange(1, full)), Quick: formatInts(intRange(1, quick))}
}

// StringAxis declares a categorical axis; quick may be nil to reuse
// the full values in quick mode.
func StringAxis(name string, full, quick []string) Axis {
	return Axis{Name: name, Kind: AxisString, Full: full, Quick: quick}
}

// WithUnit returns a copy of the axis carrying the unit.
func (a Axis) WithUnit(unit string) Axis {
	a.Unit = unit
	return a
}

// Values returns the axis's value list for the given mode.
func (a Axis) Values(quick bool) []string {
	if quick && a.Quick != nil {
		return a.Quick
	}
	return a.Full
}

// Check validates that v parses under the axis's kind.
func (a Axis) Check(v string) error {
	switch a.Kind {
	case AxisFloat:
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("experiments: axis %q value %q is not a float", a.Name, v)
		}
	case AxisInt:
		if _, err := strconv.Atoi(v); err != nil {
			return fmt.Errorf("experiments: axis %q value %q is not an int", a.Name, v)
		}
	}
	return nil
}

// Cell returns the value v of the axis as a typed cell carrying the
// axis unit: a float, an int, or a label, by the axis kind.
func (a Axis) Cell(v string) results.Cell {
	switch a.Kind {
	case AxisFloat:
		f, _ := strconv.ParseFloat(v, 64)
		return results.Float(f).WithUnit(a.Unit)
	case AxisInt:
		n, _ := strconv.Atoi(v)
		return results.Int(int64(n)).WithUnit(a.Unit)
	default:
		return results.String(v)
	}
}

func formatFloats(vs []float64) []string {
	if vs == nil {
		return nil
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}

func formatInts(vs []int) []string {
	if vs == nil {
		return nil
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.Itoa(v)
	}
	return out
}

func intRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// axisNames joins the axis names for error messages.
func axisNames(axes []Axis) string {
	names := make([]string, len(axes))
	for i, a := range axes {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// Point is one cell of an axis cross-product: a value and a position
// for every axis. The typed accessors panic on unknown axis names or
// unparsable values — both programming errors, since sweep overrides
// are validated before the grid runs.
type Point struct {
	axes []Axis
	vals []string
	idx  []int      // position in the active (possibly overridden) value list
	act  [][]string // the active per-axis value lists of the whole grid
	reg  [][]string // the registered per-axis values for the run's mode
}

// Len returns the number of axes.
func (pt Point) Len() int { return len(pt.axes) }

// Axis returns the i-th axis declaration.
func (pt Point) Axis(i int) Axis { return pt.axes[i] }

// Value returns the i-th axis's canonical value string.
func (pt Point) Value(i int) string { return pt.vals[i] }

func (pt Point) lookup(name string) int {
	for i, a := range pt.axes {
		if a.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("experiments: point has no axis %q (axes: %s)", name, axisNames(pt.axes)))
}

// Active returns the i-th axis's active value list: the registered
// values for the run's mode, or a sweep's override.
func (pt Point) Active(i int) []string { return pt.act[i] }

// String returns the named axis's value.
func (pt Point) String(name string) string { return pt.vals[pt.lookup(name)] }

// activeMaxInt returns the largest active value of the named int axis
// (the registered defaults or a sweep's override). Cells use it to
// size sweep-shared measurements (e.g. a Monte Carlo curve covering
// the largest horizon of the whole sweep) instead of re-measuring per
// cell.
func activeMaxInt(pt Point, name string) int {
	i := pt.lookup(name)
	max := pt.Int(name)
	for _, v := range pt.act[i] {
		if n, err := strconv.Atoi(v); err == nil && n > max {
			max = n
		}
	}
	return max
}

// Float returns the named axis's value as a float64.
func (pt Point) Float(name string) float64 {
	i := pt.lookup(name)
	v, err := strconv.ParseFloat(pt.vals[i], 64)
	if err != nil {
		panic(fmt.Sprintf("experiments: axis %q value %q is not a float", name, pt.vals[i]))
	}
	return v
}

// Int returns the named axis's value as an int.
func (pt Point) Int(name string) int {
	i := pt.lookup(name)
	v, err := strconv.Atoi(pt.vals[i])
	if err != nil {
		panic(fmt.Sprintf("experiments: axis %q value %q is not an int", name, pt.vals[i]))
	}
	return v
}

// Index returns the named axis's position within the experiment's
// registered value list for the run's mode — NOT its position in a
// sweep's overridden list. Experiments that historically derived
// per-case seeds from the loop index use it, so full runs stay
// bit-identical to the pre-grid harness AND a subset sweep of
// registered values reproduces the exact numbers of the full run's
// table at the same points. A value outside the registered list falls
// back to its position in the active list (deterministic, but with no
// full-run twin to match).
func (pt Point) Index(name string) int {
	i := pt.lookup(name)
	for j, v := range pt.reg[i] {
		if v == pt.vals[i] {
			return j
		}
	}
	return pt.idx[i]
}

// gridOver invokes fn once per point of the cross-product of the
// per-axis value lists, in row-major order (first axis slowest, last
// axis fastest). registered holds the registered lists for
// Point.Index; the sweep engine passes overridden active lists in
// values. The first error aborts the walk.
func gridOver(axes []Axis, values, registered [][]string, fn func(pt Point) error) error {
	if len(axes) == 0 {
		return fmt.Errorf("experiments: grid needs at least one axis")
	}
	total := 1
	for i, vs := range values {
		if len(vs) == 0 {
			return fmt.Errorf("experiments: axis %q has no values", axes[i].Name)
		}
		total *= len(vs)
	}
	for n := 0; n < total; n++ {
		idx := make([]int, len(axes))
		vals := make([]string, len(axes))
		rem := n
		for i := len(axes) - 1; i >= 0; i-- {
			idx[i] = rem % len(values[i])
			rem /= len(values[i])
		}
		for i := range axes {
			vals[i] = values[i][idx[i]]
		}
		if err := fn(Point{axes: axes, vals: vals, idx: idx, act: values, reg: registered}); err != nil {
			return err
		}
	}
	return nil
}
