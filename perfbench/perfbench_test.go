package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// units maps each metric of one BENCHMARK.json list to its unit.
func units(list []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	m := make(map[string]string)
	for _, e := range list {
		m[e.Name] = e.Unit
	}
	return m
}

// TestSchemaMatchesBenchmarkFile checks that BENCHMARK.json lists the
// workloads and metrics this program reports, with the same units.
func TestSchemaMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind  string
		file  map[string]string
		n     int
		table []metricDef
	}{
		{"end_to_end", units(bf.EndToEnd), len(bf.EndToEnd), endToEnd},
		{"per_layer", units(bf.PerLayer), len(bf.PerLayer), perLayer},
	} {
		if c.n != len(c.table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.kind, c.n, len(c.table))
		}
		for _, d := range c.table {
			if u, ok := c.file[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", c.kind, d.name, u, d.unit)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, ..., 10]) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// countMetrics are the per-layer counts that must repeat exactly for
// one seed.
var countMetrics = []string{
	"sim.agent_rounds", "core.collisions", "results.bytes", "netsize.burnin_rounds",
	"netsize.queries", "journal.bytes_per_run", "serve.requests",
}

// TestSmokeRuns builds the benchmark and the antdensity binary, runs a
// smoke-size configuration of every workload twice per mode with one
// seed, and checks that each run is correct, emits every metric of
// BENCHMARK.json with its unit, and repeats its counts exactly.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs every workload")
	}
	dir := t.TempDir()
	bench, bin := filepath.Join(dir, "perfbench"), filepath.Join(dir, "antdensity")
	for _, b := range [][2]string{{bench, "."}, {bin, "antdensity/cmd/antdensity"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b[1], err, out)
		}
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			want := units(bf.EndToEnd)
			if trace == "1" {
				want = units(bf.PerLayer)
			}
			var runs []report
			for i := 0; i < 2; i++ {
				out, err := exec.Command(bench, "--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--smoke", "--bin", bin, "--work", filepath.Join(dir, "work")).Output()
				if err != nil {
					t.Fatalf("%s trace %s: %v", w, trace, err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("%s trace %s: last line: %v", w, trace, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(rep.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := rep.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, name, m, unit)
					}
				}
				runs = append(runs, rep)
			}
			if trace == "1" {
				for _, name := range countMetrics {
					if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
						t.Errorf("%s: count %s is %v, then %v for the same seed", w, name, a, b)
					}
				}
			}
		}
	}
}
