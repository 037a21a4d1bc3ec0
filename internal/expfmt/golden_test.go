package expfmt_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"antdensity/internal/experiments"
	"antdensity/internal/results"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenPath returns the golden file for an experiment and extension.
func goldenPath(id, ext string) string {
	return filepath.Join("testdata", strings.ToLower(id)+"_quick."+ext)
}

// checkGolden compares got against the golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden file %s\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestExperimentTableGolden locks the exact rendered text output of a
// fixed-seed quick run of every registered experiment — table layout,
// float formatting, and the numbers themselves. Any runner, grid, or
// formatting refactor that silently changes a reported value fails
// here; an intended change is recorded with
// go test ./internal/expfmt -run Golden -update.
func TestExperimentTableGolden(t *testing.T) {
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var sb strings.Builder
			if _, err := e.Run(experiments.Params{Seed: 12345, Quick: true, Out: &sb}); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, goldenPath(e.ID, "golden"), []byte(sb.String()))
		})
	}
}

// TestExperimentJSONGolden locks the JSON schema of the structured
// results layer for a representative pair of experiments (the
// satellite schema-stability goldens), and proves the encoding round
// trips losslessly: decode(encode(result)) == result.
func TestExperimentJSONGolden(t *testing.T) {
	for _, id := range []string{"E01", "E26"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := experiments.ByID(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			res, err := e.RunResult(experiments.Params{Seed: 12345, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := results.WriteJSON(&buf, res); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, goldenPath(id, "json"), buf.Bytes())

			back, err := results.ReadJSON(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(back, res) {
				t.Errorf("JSON round trip drifted:\ngot  %+v\nwant %+v", back, res)
			}
		})
	}
}

// TestExperimentMetricsGolden pins every experiment's metrics and
// notes exactly: one golden holds, for each registered experiment in
// ID order, a result carrying only its ID, seed, mode, metrics and
// notes, written through the results JSON encoding — which keeps
// every float's exact bits and encodes NaN and ±Inf. The text
// goldens round the notes' numbers; this one does not.
func TestExperimentMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range experiments.All() {
		p := experiments.Params{Seed: 12345, Quick: true}
		res, err := e.RunResult(p)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		pinned := &results.Result{ID: res.ID, Seed: res.Seed, Quick: res.Quick, Metrics: res.Metrics, Notes: res.Notes}
		if err := results.WriteJSON(&buf, pinned); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, filepath.Join("testdata", "metrics_quick.json"), buf.Bytes())
}
