package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"antdensity/internal/experiments"
	"antdensity/internal/expfmt"
	"antdensity/internal/results"
	"antdensity/internal/sim"
)

// This file implements the sweep subcommand: it executes a
// user-supplied axis cross-product for one experiment through the
// sweep engine and streams one results row per grid cell, in text,
// JSON, or CSV.

// outputFormats are the values -format accepts.
const outputFormats = "text, json, csv"

// parseFormat validates a -format value.
func parseFormat(s string) (string, error) {
	switch s {
	case "text", "json", "csv":
		return s, nil
	}
	return "", fmt.Errorf("unknown format %q (available: %s)", s, outputFormats)
}

// resolveExperiment looks up an experiment by ID, case-insensitively,
// and lists the registry on a miss.
func resolveExperiment(id string) (experiments.Experiment, error) {
	if e, ok := experiments.ByID(id); ok {
		return e, nil
	}
	if e, ok := experiments.ByID(strings.ToUpper(id)); ok {
		return e, nil
	}
	return experiments.Experiment{}, fmt.Errorf("unknown experiment %q (available: %s)",
		id, strings.Join(experiments.IDs(), ", "))
}

// repeatedFlag collects every occurrence of a repeatable string flag.
type repeatedFlag []string

func (r *repeatedFlag) String() string     { return strings.Join(*r, " ") }
func (r *repeatedFlag) Set(v string) error { *r = append(*r, v); return nil }

func cmdSweep(args []string) (err error) {
	// Accept the experiment ID before the flags (antdensity sweep e01
	// -axis d=...) as well as after them.
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "random seed")
	quick := fs.Bool("quick", false, "reduced trial counts")
	workers := fs.Int("workers", 0, "trial-runner goroutines (0 = all CPUs); results are identical for any value")
	shards := fs.Int("shards", 0, "spatial shards per world (0 = auto); results are identical for any value")
	format := fs.String("format", "text", "output format: text, json, or csv")
	prof := addProfileFlags(fs, "the sweep")
	var axes repeatedFlag
	fs.Var(&axes, "axis", "axis override name=v1,v2,... or name=lo:hi:step (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sim.SetDefaultShards(*shards); err != nil {
		return fmt.Errorf("sweep: -shards: %w", err)
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); e != nil && err == nil {
			err = e
		}
	}()
	if id == "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("sweep: need exactly one experiment id (sweepable: %s)",
				strings.Join(experiments.SweepableIDs(), ", "))
		}
		id = fs.Arg(0)
	} else if fs.NArg() != 0 {
		return fmt.Errorf("sweep: unexpected arguments %v", fs.Args())
	}
	f, err := parseFormat(*format)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	e, err := resolveExperiment(id)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	p := experiments.Params{Seed: *seed, Quick: *quick, Workers: *workers}
	w, err := newSweepWriter(os.Stdout, f, e)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if err := e.SweepSpecs(p, axes, w.row); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return w.close()
}

// sweepWriter streams sweep rows in one output format.
type sweepWriter struct {
	out     io.Writer
	format  string
	exp     experiments.Experiment
	columns []results.Column // axis columns then measurement columns
	widths  []int            // text mode column widths
	csv     *csv.Writer
	rows    int
}

// newSweepWriter builds a streaming writer; the format's header is
// emitted on the first row, so spec-validation errors never leave a
// half-written stream behind.
func newSweepWriter(out io.Writer, format string, e experiments.Experiment) (*sweepWriter, error) {
	switch format {
	case "text", "csv", "json":
	default:
		return nil, fmt.Errorf("unknown format %q (available: %s)", format, outputFormats)
	}
	return &sweepWriter{out: out, format: format, exp: e, columns: e.SweepColumns()}, nil
}

// header emits the format's stream prefix once.
func (w *sweepWriter) header() error {
	switch w.format {
	case "text":
		var header []string
		for _, name := range w.headerNames() {
			width := len(name)
			if width < 12 {
				width = 12
			}
			w.widths = append(w.widths, width)
			header = append(header, name)
		}
		return w.writeTextRow(header)
	case "csv":
		w.csv = csv.NewWriter(w.out)
		if err := w.csv.Write(w.headerNames()); err != nil {
			return err
		}
		w.csv.Flush()
		return w.csv.Error()
	default: // json
		_, err := io.WriteString(w.out, "[")
		return err
	}
}

// headerNames expands the sweep columns into flat header names,
// reserving ci95/n columns for measurements that declare one.
func (w *sweepWriter) headerNames() []string {
	var out []string
	for _, c := range w.columns {
		out = append(out, c.Name)
		if c.CI {
			out = append(out, c.Name+" ci95", c.Name+" n")
		}
	}
	return out
}

// flatCells expands a sweep row into one string per header name.
func (w *sweepWriter) flatCells(row experiments.SweepRow, render func(results.Cell) string) []string {
	cells := append(row.AxisValues(), row.Cells...)
	var out []string
	for i, c := range cells {
		out = append(out, render(c))
		if w.columns[i].CI {
			if c.HasCI {
				out = append(out, render(results.Float(c.CI95)), render(results.Int(int64(c.N))))
			} else {
				out = append(out, "", "")
			}
		}
	}
	return out
}

// row streams one completed grid cell, emitting the header first.
func (w *sweepWriter) row(r experiments.SweepRow) error {
	if w.rows == 0 {
		if err := w.header(); err != nil {
			return err
		}
	}
	w.rows++
	switch w.format {
	case "text":
		return w.writeTextRow(w.flatCells(r, expfmt.CellText))
	case "csv":
		if err := w.csv.Write(w.flatCells(r, results.Cell.Exact)); err != nil {
			return err
		}
		w.csv.Flush()
		return w.csv.Error()
	default: // json
		obj := struct {
			Experiment string                  `json:"experiment"`
			Point      map[string]results.Cell `json:"point"`
			Values     map[string]results.Cell `json:"values"`
		}{
			Experiment: w.exp.ID,
			Point:      map[string]results.Cell{},
			Values:     map[string]results.Cell{},
		}
		axisCells := r.AxisValues()
		for i := range axisCells {
			obj.Point[r.Point.Axis(i).Name] = axisCells[i]
		}
		for i, c := range r.Cells {
			obj.Values[w.exp.Columns[i].Name] = c
		}
		b, err := json.Marshal(obj)
		if err != nil {
			return err
		}
		sep := "\n  "
		if w.rows > 1 {
			sep = ",\n  "
		}
		_, err = fmt.Fprintf(w.out, "%s%s", sep, b)
		return err
	}
}

// writeTextRow pads cells to the text column widths.
func (w *sweepWriter) writeTextRow(cells []string) error {
	var sb strings.Builder
	for i, cell := range cells {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(cell)
		if i < len(cells)-1 && len(cell) < w.widths[i] {
			sb.WriteString(strings.Repeat(" ", w.widths[i]-len(cell)))
		}
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w.out, sb.String())
	return err
}

// close finishes the stream (the JSON array's closing bracket).
func (w *sweepWriter) close() error {
	if w.format == "json" {
		if w.rows == 0 {
			_, err := io.WriteString(w.out, "[]\n")
			return err
		}
		_, err := io.WriteString(w.out, "\n]\n")
		return err
	}
	return nil
}
