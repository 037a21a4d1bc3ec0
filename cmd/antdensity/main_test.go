package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI golden files from current output")

// captureStdout redirects os.Stdout for the duration of fn and
// returns everything written.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	// Drain any remainder.
	for {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil || n == len(buf) {
			break
		}
	}
	return string(buf[:n]), runErr
}

func TestRunDispatchErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring the error must contain, if set
	}{
		{name: "no args", args: nil},
		{name: "unknown subcommand", args: []string{"frobnicate"}},
		{name: "run without id", args: []string{"run"}},
		{name: "run unknown id", args: []string{"run", "E99"}},
		{name: "netsize bad graph", args: []string{"netsize", "-graph", "nope", "-nodes", "50"}},
		{name: "walk bad topo", args: []string{"walk", "-topo", "nope"}},
		{name: "run bad format", args: []string{"run", "-format", "yaml", "E01"}},
		{name: "run csv multi", args: []string{"run", "-format", "csv", "E01", "E02"}},
		{name: "sweep without id", args: []string{"sweep"}},
		{name: "sweep unknown id", args: []string{"sweep", "E99"}},
		{name: "sweep bad format", args: []string{"sweep", "E01", "-format", "yaml"}},
		{name: "sweep unknown axis", args: []string{"sweep", "E01", "-axis", "bogus=1"}},
		{name: "sweep bad axis value", args: []string{"sweep", "E01", "-axis", "steps=abc"}},
		{name: "sweep bad axis range", args: []string{"sweep", "E01", "-axis", "steps=10:5:1"}},
		{name: "sweep not sweepable", args: []string{"sweep", "E20"}},
		// Out-of-range estimator flags are refused by name instead of
		// reaching a Theorem 1 bound or a relative error that panics.
		{name: "quorum delta 0", args: []string{"quorum", "-delta", "0"}, want: "-delta"},
		{name: "quorum delta 1", args: []string{"quorum", "-delta", "1"}, want: "-delta"},
		{name: "quorum adaptive delta 0", args: []string{"quorum", "-adaptive", "-delta", "0"}, want: "-delta"},
		{name: "quorum eps 0", args: []string{"quorum", "-eps", "0"}, want: "-eps"},
		{name: "quorum eps 1.5", args: []string{"quorum", "-eps", "1.5"}, want: "-eps"},
		{name: "quorum threshold 0", args: []string{"quorum", "-threshold", "0"}, want: "-threshold"},
		{name: "quorum threshold -1", args: []string{"quorum", "-threshold", "-1"}, want: "-threshold"},
		{name: "estimate one agent", args: []string{"estimate", "-agents", "1"}, want: "-agents"},
		{name: "estimate density above 1", args: []string{"estimate", "-side", "3", "-agents", "20"}, want: "-agents"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := captureStdout(t, func() error { return run(tt.args) })
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("run(%v) error %q does not name %q", tt.args, err, tt.want)
			}
		})
	}
}

// TestMainErrorLine runs main in a child process and pins the one
// line it prints for flag values that Spec validation refuses: the
// root package's errors already carry the "antdensity:" prefix, and
// main must not add a second.
func TestMainErrorLine(t *testing.T) {
	if args, ok := os.LookupEnv("ANTDENSITY_TEST_MAIN_ARGS"); ok {
		os.Args = append([]string{"antdensity"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tt := range []struct{ args, want string }{
		{"estimate -rounds 0", "antdensity: Spec.Rounds must be >= 1, got 0\n"},
		{"quorum -agents 0", "antdensity: Spec.NumAgents must be >= 1, got 0\n"},
		{"netsize -walkers 1", "antdensity: Spec.Walkers must be >= 2 for kind \"netsize\", got 1\n"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMainErrorLine$")
		cmd.Env = append(os.Environ(), "ANTDENSITY_TEST_MAIN_ARGS="+tt.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("antdensity %s: %v, want exit status 1", tt.args, err)
		}
		if got := stderr.String(); got != tt.want {
			t.Errorf("antdensity %s printed %q, want %q", tt.args, got, tt.want)
		}
	}
}

// TestErrorsListOptions checks that the unknown-id, bad-format, and
// bad-axis errors name the available options.
func TestErrorsListOptions(t *testing.T) {
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"run", "E99"}, "available: E01"},
		{[]string{"run", "-format", "yaml", "E01"}, "available: text, json, csv"},
		{[]string{"sweep", "E99"}, "available: E01"},
		{[]string{"sweep", "E01", "-format", "yaml"}, "available: text, json, csv"},
		{[]string{"sweep", "E01", "-axis", "bogus=1"}, "axes: d, steps"},
		{[]string{"sweep", "E20"}, "sweepable experiments: E01"},
	}
	for _, tt := range tests {
		_, err := captureStdout(t, func() error { return run(tt.args) })
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", tt.args)
			continue
		}
		if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("run(%v) error %q does not list options (want substring %q)", tt.args, err, tt.want)
		}
	}
}

func TestCmdRunCaseInsensitiveID(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"run", "e01", "-quick", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=== E01") {
		t.Errorf("lower-case id did not resolve:\n%s", out)
	}
}

func TestCmdRunJSON(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"run", "E01", "-quick", "-seed", "3", "-format", "json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		ID      string             `json:"id"`
		Metrics map[string]float64 `json:"metrics"`
		Series  []json.RawMessage  `json:"series"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("run -format=json output is not valid JSON: %v\n%s", err, out)
	}
	if res.ID != "E01" || len(res.Series) == 0 {
		t.Errorf("unexpected JSON result: id=%q series=%d", res.ID, len(res.Series))
	}
	if _, ok := res.Metrics["max_abs_bias"]; !ok {
		t.Errorf("JSON result missing max_abs_bias metric: %v", res.Metrics)
	}
}

func TestCmdRunJSONMulti(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"run", "E01", "E26", "-quick", "-seed", "3", "-format", "json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var res []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("multi-experiment JSON is not an array: %v", err)
	}
	if len(res) != 2 || res[0].ID != "E01" || res[1].ID != "E26" {
		t.Errorf("unexpected JSON array: %+v", res)
	}
}

func TestCmdRunCSV(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"run", "E01", "-quick", "-seed", "3", "-format", "csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 density rows
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "d,steps,density,agents,mean_dtilde,mean_dtilde ci95,mean_dtilde n,") {
		t.Errorf("CSV header unexpected: %q", lines[0])
	}
}

func TestCmdSweepText(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"sweep", "E01", "-quick", "-seed", "3", "-axis", "d=0.02,0.1", "-axis", "steps=100"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 cells
		t.Fatalf("sweep produced %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "d ") {
		t.Errorf("sweep header unexpected: %q", lines[0])
	}
}

// TestCmdSweepTextAligned pins that every row of a text sweep starts
// each column at the header's column offset, also where an axis value
// is wider than the 12-character minimum width ("spurious_0.05").
func TestCmdSweepTextAligned(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"sweep", "E18", "-quick", "-axis", "variant=baseline,spurious_0.05"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 variants
		t.Fatalf("sweep produced %d lines, want 3:\n%s", len(lines), out)
	}
	// Header names may hold a space ("mean_dtilde ci95"); locate each
	// in turn. No E18 cell holds one, so a row's columns start after
	// each run of spaces.
	var want []int
	at := 0
	for _, name := range []string{"variant", "mean_dtilde", "mean_dtilde ci95", "mean_dtilde n", "predicted", "ratio"} {
		i := strings.Index(lines[0][at:], name)
		if i < 0 {
			t.Fatalf("header %q lacks column %q after offset %d", lines[0], name, at)
		}
		want = append(want, at+i)
		at += i + len(name)
	}
	for _, line := range lines[1:] {
		var got []int
		for i := range line {
			if line[i] != ' ' && (i == 0 || line[i-1] == ' ') {
				got = append(got, i)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("row %q starts its columns at %v, header at %v\n%s", line, got, want, out)
		}
	}
}

func TestCmdSweepJSON(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"sweep", "e01", "-quick", "-seed", "3", "-format", "json",
			"-axis", "d=0.02,0.1", "-axis", "steps=100:200:100"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Experiment string                     `json:"experiment"`
		Point      map[string]json.RawMessage `json:"point"`
		Values     map[string]json.RawMessage `json:"values"`
	}
	if err := json.Unmarshal([]byte(out), &rows); err != nil {
		t.Fatalf("sweep -format=json output is not valid JSON: %v\n%s", err, out)
	}
	if len(rows) != 4 { // 2 densities x 2 horizons
		t.Fatalf("sweep produced %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Experiment != "E01" || len(r.Point) != 2 || len(r.Values) == 0 {
			t.Errorf("unexpected sweep row: %+v", r)
		}
	}
}

func TestCmdSweepCSV(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"sweep", "E01", "-quick", "-seed", "3", "-format", "csv",
			"-axis", "d=0.05", "-axis", "steps=100"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("sweep CSV has %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "d,steps,") {
		t.Errorf("sweep CSV header unexpected: %q", lines[0])
	}
}

func TestCmdList(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E01", "E11", "E22"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestCmdHelp(t *testing.T) {
	if _, err := captureStdout(t, func() error { return run([]string{"help"}) }); err != nil {
		t.Errorf("help returned error: %v", err)
	}
}

func TestCmdRunQuick(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"run", "-quick", "-seed", "3", "E01"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E01") || !strings.Contains(out, "bias_ratio") {
		t.Errorf("run E01 output unexpected:\n%s", out)
	}
}

// checkCLIGolden runs the CLI with args and compares its exact stdout
// with testdata/<name>.golden, rewriting the file under -update.
func checkCLIGolden(t *testing.T, name string, args []string) {
	t.Helper()
	out, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if out != string(want) {
		t.Errorf("run(%v) drifted from %s\n--- got\n%s--- want\n%s", args, path, out, want)
	}
}

// cliCase is one golden-pinned CLI invocation.
type cliCase struct {
	name string
	args []string
}

// TestCmdEstimate pins estimate's table byte for byte, honest and
// under a count adversary, a timed adversary left at its half-horizon
// default, and a seeded random adversary on a 3-D torus.
func TestCmdEstimate(t *testing.T) {
	base := []string{"estimate", "-side", "20", "-agents", "41", "-rounds", "300", "-seed", "7"}
	for _, tt := range []cliCase{
		{"estimate", []string{"estimate", "-side", "30", "-agents", "91", "-rounds", "200", "-seed", "5"}},
		{"estimate_inflate", append(base, "-adversary", "inflate:0.2:5")},
		{"estimate_crash", append(base, "-adversary", "crash:0.25")},
		{"estimate_3d_random", []string{"estimate", "-dims", "3", "-side", "9", "-agents", "60", "-rounds", "150", "-seed", "3",
			"-adversary", "random:0.3:0:11"}},
	} {
		t.Run(tt.name, func(t *testing.T) { checkCLIGolden(t, tt.name, tt.args) })
	}
}

// TestCmdWalk pins the re-collision table of every -topo byte for
// byte.
func TestCmdWalk(t *testing.T) {
	for _, topo := range []string{"torus2d", "ring", "torus3d", "hypercube"} {
		name := "walk_" + topo
		t.Run(name, func(t *testing.T) {
			checkCLIGolden(t, name, []string{"walk", "-topo", topo, "-steps", "16", "-trials", "2000", "-seed", "5"})
		})
	}
}

// TestCmdNetsize pins netsize's table byte for byte on every -graph
// family.
func TestCmdNetsize(t *testing.T) {
	for _, graph := range []string{"ba", "er", "ws", "torus3"} {
		name := "netsize_" + graph
		t.Run(name, func(t *testing.T) {
			checkCLIGolden(t, name, []string{"netsize", "-graph", graph,
				"-nodes", "3000", "-walkers", "60", "-steps", "150", "-seed", "3"})
		})
	}
}

// TestCmdQuorum pins the fixed-horizon quorum table, honest and under
// a deflating adversary.
func TestCmdQuorum(t *testing.T) {
	base := []string{"quorum", "-side", "15", "-agents", "46", "-threshold", "0.1", "-eps", "0.5", "-delta", "0.2"}
	for _, tt := range []cliCase{
		{"quorum", base},
		{"quorum_deflate", append(base, "-adversary", "deflate:0.2")},
	} {
		t.Run(tt.name, func(t *testing.T) { checkCLIGolden(t, tt.name, tt.args) })
	}
}

// TestCmdQuorumAdaptive pins the anytime quorum table, honest and
// under a stall adversary left at its half-budget default.
func TestCmdQuorumAdaptive(t *testing.T) {
	base := []string{"quorum", "-adaptive", "-side", "15", "-agents", "91", "-threshold", "0.1", "-max-rounds", "5000"}
	for _, tt := range []cliCase{
		{"quorum_adaptive", base},
		{"quorum_adaptive_stall", append(base, "-adversary", "stall:0.2")},
	} {
		t.Run(tt.name, func(t *testing.T) { checkCLIGolden(t, tt.name, tt.args) })
	}
}

func TestCmdAllocate(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"allocate", "-agents", "60", "-epochs", "3", "-rounds", "20"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "final L1") {
		t.Errorf("allocate output unexpected:\n%s", out)
	}
}

// TestProfileFlags smoke-tests -cpuprofile/-memprofile/-trace on the
// three subcommands that accept them: every requested file must exist
// and be non-empty after the command returns.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	runs := []struct {
		name string
		args func(cpu, mem, trc string) []string
	}{
		{"estimate", func(cpu, mem, trc string) []string {
			return []string{"estimate", "-side", "20", "-agents", "41", "-rounds", "50", "-seed", "5",
				"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc}
		}},
		{"run", func(cpu, mem, trc string) []string {
			return []string{"run", "E01", "-quick", "-seed", "3",
				"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc}
		}},
		{"sweep", func(cpu, mem, trc string) []string {
			return []string{"sweep", "E01", "-quick", "-seed", "3", "-axis", "d=0.05", "-axis", "steps=100",
				"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc}
		}},
	}
	for _, tt := range runs {
		t.Run(tt.name, func(t *testing.T) {
			paths := map[string]string{
				"cpuprofile": dir + "/" + tt.name + ".cpu",
				"memprofile": dir + "/" + tt.name + ".mem",
				"trace":      dir + "/" + tt.name + ".trace",
			}
			_, err := captureStdout(t, func() error {
				return run(tt.args(paths["cpuprofile"], paths["memprofile"], paths["trace"]))
			})
			if err != nil {
				t.Fatal(err)
			}
			for kind, path := range paths {
				fi, err := os.Stat(path)
				if err != nil {
					t.Errorf("%s: %v", kind, err)
					continue
				}
				if fi.Size() == 0 {
					t.Errorf("%s file %s is empty", kind, path)
				}
			}
		})
	}
}

// TestProfileFlagsBadPath checks that an unwritable profile path
// fails before the run starts rather than after it.
func TestProfileFlagsBadPath(t *testing.T) {
	_, err := captureStdout(t, func() error {
		return run([]string{"estimate", "-side", "20", "-agents", "41", "-rounds", "10",
			"-memprofile", t.TempDir() + "/no/such/dir/x.mem"})
	})
	if err == nil {
		t.Fatal("estimate with unwritable -memprofile succeeded, want error")
	}
	if !strings.Contains(err.Error(), "memprofile") {
		t.Errorf("error %q does not name the failing flag", err)
	}
}

func TestCmdSensors(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"sensors", "-side", "32", "-steps", "64", "-trials", "500"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "inflation") {
		t.Errorf("sensors output unexpected:\n%s", out)
	}
}
