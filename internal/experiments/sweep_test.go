package experiments

import (
	"encoding/json"
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

// clearMemo deletes experiment id's sweep-shared measurements, so the
// next cell that needs one measures it afresh.
func clearMemo(id string) {
	sweepMemo.Range(func(k, _ any) bool {
		if strings.HasPrefix(k.(string), id+"/") {
			sweepMemo.Delete(k)
		}
		return true
	})
}

// cellsJSON encodes a row's cells, exact bits and NaN included, for
// comparison.
func cellsJSON(t *testing.T, cells []results.Cell) string {
	t.Helper()
	b, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepMatchesRunPath pins that run and sweep print one table: for
// every sweepable experiment, each registered quick point's row of
// RunResult's table is exactly the row a one-cell sweep at that point
// returns, with the sweep-shared memo cleared first. A one-cell sweep
// shares nothing with the run: an Index-seeded axis keeps its
// registered seed offset, and a shared curve is measured afresh, sized
// to the one point. Every float cell of a column that declares a CI
// carries one, and no other column's cells do, so the CSV and text
// writers' ci95/n columns are the declared ones.
func TestSweepMatchesRunPath(t *testing.T) {
	for _, e := range All() {
		if !e.Sweepable() {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			p := Params{Seed: 12345, Quick: true}
			res, err := e.RunResult(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Series) != 1 {
				t.Fatalf("run wrote %d tables, want the sweep's one", len(res.Series))
			}
			table := res.Series[0]
			if !reflect.DeepEqual(table.Columns, e.SweepColumns()) {
				t.Errorf("run table columns %v, want the sweep columns %v", table.Columns, e.SweepColumns())
			}
			registered := make([][]string, len(e.Axes))
			for i, a := range e.Axes {
				registered[i] = a.Values(true)
			}
			n := 0
			err = gridOver(e.Axes, registered, registered, func(pt Point) error {
				if n >= len(table.Rows) {
					t.Fatalf("run table has %d rows, fewer than the registered grid", len(table.Rows))
				}
				want := table.Rows[n]
				n++
				for j, c := range want {
					col := table.Columns[j]
					if c.Kind == results.KindFloat && col.CI != c.HasCI {
						t.Errorf("%s: column %q declares CI %v, cell has CI %v", pointLabel(pt), col.Name, col.CI, c.HasCI)
					}
				}
				one := map[string][]string{}
				for i := 0; i < pt.Len(); i++ {
					one[pt.Axis(i).Name] = []string{pt.Value(i)}
				}
				clearMemo(e.ID)
				rows := 0
				if err := e.Sweep(p, one, func(r SweepRow) error {
					rows++
					if got := cellsJSON(t, append(r.AxisValues(), r.Cells...)); got != cellsJSON(t, want) {
						t.Errorf("%s: one-cell sweep row\n%s\nrun table row\n%s", pointLabel(pt), got, cellsJSON(t, want))
					}
					return nil
				}); err != nil {
					return err
				}
				if rows != 1 {
					t.Errorf("%s: one-cell sweep emitted %d rows", pointLabel(pt), rows)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != len(table.Rows) {
				t.Errorf("run table has %d rows, registered grid %d points", len(table.Rows), n)
			}
		})
	}
}

// TestSweepSubsetMatchesRun pins the Index seed contract: sweeping a
// SUBSET of an index-seeded axis, in an order of its own, must
// reproduce the exact rows of the full run at the same values, because
// Point.Index anchors to the registered value list, not the override's
// positions. E18's last variant historically took seed offset 5<<24; a
// subset sweep that lists it first must still use it.
func TestSweepSubsetMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		id   string
		axis string
		rows []int // each value's row in the run's table
	}{
		{"E18", "variant=biased_2111,detect_0.8", []int{5, 1}},
		{"E19", "ratio=2.0,0.5", []int{5, 1}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			e, _ := ByID(tc.id)
			p := Params{Seed: 12345, Quick: true}
			res, err := e.RunResult(p)
			if err != nil {
				t.Fatal(err)
			}
			rows := sweepOnce(t, e, p, []string{tc.axis})
			if len(rows) != len(tc.rows) {
				t.Fatalf("subset sweep has %d rows, want %d", len(rows), len(tc.rows))
			}
			for i, r := range rows {
				want := res.Series[0].Rows[tc.rows[i]]
				if got := cellsJSON(t, append(r.AxisValues(), r.Cells...)); got != cellsJSON(t, want) {
					t.Errorf("subset sweep row %d\n%s\nfull run row %d\n%s", i, got, tc.rows[i], cellsJSON(t, want))
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
// overridden points and returns the declared column count, with a CI
// on every float cell of a column that declares one.
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
// test: the same miniature sweeps at overridden points must produce
// bit-identical rows, compared as their exact JSON encoding, for
// workers=1 and a parallel worker count, because every cell runs its
// trials through the order-deterministic parallel runner. Each pass
// first clears the experiment's sweep-shared measurements, which are
// not keyed by worker count, so the parallel pass measures them itself.
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
			collect := func(workers int) []string {
				clearMemo(e.ID)
				var rows []string
				err := e.Sweep(Params{Seed: 12345, Quick: true, Workers: workers}, specs, func(r SweepRow) error {
					rows = append(rows, cellsJSON(t, append(r.AxisValues(), r.Cells...)))
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return rows
			}
			r1 := collect(1)
			rN := collect(parWorkers)
			if !reflect.DeepEqual(r1, rN) {
				t.Errorf("rows differ between worker counts:\n--- workers=1\n%s\n--- workers=%d\n%s",
					strings.Join(r1, "\n"), parWorkers, strings.Join(rN, "\n"))
			}
		})
	}
}
