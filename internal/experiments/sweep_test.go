package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"antdensity/internal/results"
)

// sweepOnce collects every row of a sweep.
func sweepOnce(t *testing.T, e Experiment, p Params, specs []string) []SweepRow {
	t.Helper()
	var rows []SweepRow
	if err := e.SweepSpecs(p, specs, func(r SweepRow) error {
		rows = append(rows, r)
		return nil
	}); err != nil {
		t.Fatalf("%s sweep: %v", e.ID, err)
	}
	return rows
}

func TestSweepOverridesAndDefaults(t *testing.T) {
	e, ok := ByID("E01")
	if !ok {
		t.Fatal("E01 not registered")
	}
	p := Params{Seed: 7, Quick: true}
	// Override d only: steps keeps its quick default (250), d becomes a
	// 2-point range, so the sweep has 2 cells in d-major order.
	rows := sweepOnce(t, e, p, []string{"d=0.05,0.2"})
	if len(rows) != 2 {
		t.Fatalf("sweep produced %d rows, want 2", len(rows))
	}
	if rows[0].Point.Float("d") != 0.05 || rows[1].Point.Float("d") != 0.2 {
		t.Errorf("override values wrong: %v, %v", rows[0].Point.Float("d"), rows[1].Point.Float("d"))
	}
	if rows[0].Point.Int("steps") != 250 {
		t.Errorf("non-overridden axis did not keep quick default: %d", rows[0].Point.Int("steps"))
	}
	for _, r := range rows {
		if len(r.Cells) != len(e.Columns) {
			t.Errorf("row has %d cells, want %d", len(r.Cells), len(e.Columns))
		}
		if len(r.AxisValues()) != len(e.Axes) {
			t.Errorf("row has %d axis values, want %d", len(r.AxisValues()), len(e.Axes))
		}
	}
}

func TestSweepErrors(t *testing.T) {
	e01, _ := ByID("E01")
	e20, _ := ByID("E20")
	p := Params{Seed: 1, Quick: true}
	emit := func(SweepRow) error { return nil }
	if err := e20.Sweep(p, nil, emit); err == nil || !strings.Contains(err.Error(), "sweepable") {
		t.Errorf("non-sweepable experiment error = %v, want sweepable list", err)
	}
	if err := e01.Sweep(p, map[string][]string{"bogus": {"1"}}, emit); err == nil || !strings.Contains(err.Error(), "axes: d, steps") {
		t.Errorf("unknown axis error = %v, want axis list", err)
	}
	if err := e01.Sweep(p, map[string][]string{"steps": {"abc"}}, emit); err == nil {
		t.Error("bad value accepted")
	}
	if err := e01.SweepSpecs(p, []string{"steps"}, emit); err == nil {
		t.Error("spec without '=' accepted")
	}
}

// TestSweepE25RefusesBipartiteSide pins that E25 refuses an even
// torus side, whose bipartite torus seed-started walkers never mix,
// at once rather than burning them in for ~1e10 steps.
func TestSweepE25RefusesBipartiteSide(t *testing.T) {
	e, _ := ByID("E25")
	errc := make(chan error, 1)
	go func() {
		errc <- e.SweepSpecs(Params{Seed: 1, Quick: true}, []string{"side=8"}, func(SweepRow) error { return nil })
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "bipartite") {
			t.Errorf("sweep E25 side=8 error = %v, want the bipartite torus named", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep E25 side=8 still running after 30s")
	}
}

// TestSweepMatchesRunPath checks that a sweep at the registered default
// axes reproduces the same numbers the experiment's own table reports:
// E01's mean d-tilde cell must equal the run-path measurement at the
// same (d, steps) point, proving sweep and run share one measurement.
func TestSweepMatchesRunPath(t *testing.T) {
	e, _ := ByID("E01")
	p := Params{Seed: 12345, Quick: true}
	rows := sweepOnce(t, e, p, nil)
	if len(rows) != 4 {
		t.Fatalf("default quick sweep has %d rows, want 4", len(rows))
	}
	res, err := e.RunResult(p)
	if err != nil {
		t.Fatal(err)
	}
	table := res.Series[0]
	// Table columns: density, agents, rounds, mean, CI, bias, rel std.
	// Sweep columns:  density, mean(CI), bias, rel std.
	for i, row := range rows {
		trow := table.Rows[i]
		if row.Cells[0].Value != trow[0].Value {
			t.Errorf("row %d: sweep density %v != table %v", i, row.Cells[0].Value, trow[0].Value)
		}
		if row.Cells[1].Value != trow[3].Value {
			t.Errorf("row %d: sweep mean %v != table %v", i, row.Cells[1].Value, trow[3].Value)
		}
		if row.Cells[1].CI95 != trow[4].Value {
			t.Errorf("row %d: sweep CI %v != table %v", i, row.Cells[1].CI95, trow[4].Value)
		}
	}
}

// TestSweepOutOfDomainValueErrors pins panic containment: an axis
// value that parses but violates a library precondition (negative
// step count) must fail the sweep with an error naming the grid
// point, not kill the process with a goroutine panic.
func TestSweepOutOfDomainValueErrors(t *testing.T) {
	e, _ := ByID("E04")
	err := e.SweepSpecs(Params{Seed: 1, Quick: true}, []string{"m=-1"}, func(SweepRow) error { return nil })
	if err == nil {
		t.Fatal("out-of-domain axis value did not error")
	}
	if !strings.Contains(err.Error(), "m=-1") && !strings.Contains(err.Error(), "panic") {
		t.Errorf("error %q does not identify the failing point", err)
	}
}

// TestSweepSubsetMatchesRun pins the Index seed contract: sweeping a
// SUBSET of an index-seeded axis must reproduce the exact numbers of
// the full run at the same points, because Point.Index anchors to the
// registered value list, not the override's positions. E18's last
// variant historically took seed offset 5<<24; a single-variant sweep
// must still use it.
func TestSweepSubsetMatchesRun(t *testing.T) {
	// A one-value sweep of a registered axis value seeds its cell as
	// the full run seeds that value's row (Point.Index), so the two
	// agree.
	for _, tc := range []struct {
		id, axis string
		row      int      // the value's row in the run's first table
		cols     [][2]int // (sweep cell, table column) pairs that agree
	}{
		// Table: variant, mean d-tilde, predicted, ratio; cells:
		// mean_dtilde, predicted, ratio.
		{"E18", "variant=biased_2111", 5, [][2]int{{0, 1}, {2, 3}}},
		// Table: d/theta, short t, long t; cells: short, long.
		{"E19", "ratio=0.5", 1, [][2]int{{0, 1}, {1, 2}}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			e, _ := ByID(tc.id)
			p := Params{Seed: 12345, Quick: true}
			rows := sweepOnce(t, e, p, []string{tc.axis})
			if len(rows) != 1 {
				t.Fatalf("subset sweep has %d rows, want 1", len(rows))
			}
			res, err := e.RunResult(p)
			if err != nil {
				t.Fatal(err)
			}
			trow := res.Series[0].Rows[tc.row]
			for _, c := range tc.cols {
				if got, want := rows[0].Cells[c[0]].Value, trow[c[1]].Value; got != want {
					t.Errorf("subset sweep cell %d = %v, full run column %d = %v", c[0], got, c[1], want)
				}
			}
		})
	}
}

// sweepSmokeSpecs returns tiny axis overrides for an experiment: the
// first quick value of every axis, two for the first axis when
// available — a 1-2 cell grid.
func sweepSmokeSpecs(e Experiment) map[string][]string {
	out := map[string][]string{}
	for i, a := range e.Axes {
		vs := a.Values(true)
		n := 1
		if i == 0 && len(vs) > 1 {
			n = 2
		}
		out[a.Name] = vs[:n]
	}
	return out
}

// TestSweepSmokeAllCells executes a miniature sweep for every
// sweepable experiment, checking that each cell function runs at
// overridden points and returns the declared column count.
func TestSweepSmokeAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cell of every experiment")
	}
	for _, e := range All() {
		if !e.Sweepable() {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rows := 0
			err := e.Sweep(Params{Seed: 12345, Quick: true}, sweepSmokeSpecs(e), func(r SweepRow) error {
				rows++
				if len(r.Cells) != len(e.Columns) {
					t.Errorf("cell count %d != column count %d", len(r.Cells), len(e.Columns))
				}
				for i, c := range r.Cells {
					if c.Kind == results.KindFloat && e.Columns[i].CI && !c.HasCI {
						t.Errorf("column %q declares a CI but cell has none", e.Columns[i].Name)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if rows == 0 {
				t.Error("sweep emitted no rows")
			}
		})
	}
}

// TestSweepWorkerInvariance is the sweep-path half of the acceptance
// test: the same miniature sweeps must produce bit-identical cells for
// workers=1 and a parallel worker count, because every cell runs its
// trials through the order-deterministic parallel runner.
func TestSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweepable experiment twice")
	}
	parWorkers := runtime.NumCPU()
	if parWorkers < 4 {
		parWorkers = 4
	}
	for _, e := range All() {
		if !e.Sweepable() {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			specs := sweepSmokeSpecs(e)
			collect := func(workers int) []SweepRow {
				var rows []SweepRow
				err := e.Sweep(Params{Seed: 12345, Quick: true, Workers: workers}, specs, func(r SweepRow) error {
					rows = append(rows, r)
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return rows
			}
			r1 := collect(1)
			rN := collect(parWorkers)
			if len(r1) != len(rN) {
				t.Fatalf("row counts differ: %d vs %d", len(r1), len(rN))
			}
			for i := range r1 {
				if !reflect.DeepEqual(r1[i].Cells, rN[i].Cells) {
					t.Errorf("row %d differs between worker counts:\nworkers=1: %+v\nworkers=%d: %+v",
						i, r1[i].Cells, parWorkers, rN[i].Cells)
				}
			}
		})
	}
}
