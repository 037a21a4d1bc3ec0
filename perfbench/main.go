// Command perfbench is the repository's benchmark. It runs one seeded
// workload and prints, as its last line, one JSON object with the
// correctness verdict and the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a traced run that replays the workload
// through each layer's public calls).
//
// Workloads:
//
//	density-torus    DensitySpec, 512x512 torus, 50,000 agents, 400 rounds, a snapshot every round
//	netsize-ba       NetworkSizeSpec on BA(20000, 4), 4,000 walkers, 5,000 steps, derived burn-in
//	serve-journal    closed loop against `antdensity serve -data-dir`, restarted over its journal
//
// Each workload runs in a fresh child process. perfbench/run.sh builds
// this command and the antdensity binary from the checkout, then runs
// it from the checkout's root:
//
//	bash perfbench/run.sh --workload density-torus --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seconds 30 --repeat 5
//
// --workload all runs every workload in turn and prints each one's
// metrics and result line. --repeat k runs each selected workload k
// times back to back, with seeds seed .. seed+k-1, and prints every
// metric's median, quartiles and spread against the bound
// BENCHMARK.json gives it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"antdensity/internal/benchenv"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool   // tiny inputs and fixed rep counts, for the self-test
	bin      string // the antdensity binary serve-journal launches
	work     string // scratch directory inside the checkout
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

func (c config) args() []string {
	a := []string{
		"--workload", c.workload,
		"--seed", strconv.FormatUint(c.seed, 10),
		"--seconds", strconv.Itoa(c.seconds),
		"--trace", "0",
		"--bin", c.bin,
		"--work", c.work,
	}
	if c.trace {
		a[7] = "1"
	}
	if c.smoke {
		a = append(a, "--smoke")
	}
	return a
}

var workloadNames = []string{"density-torus", "netsize-ba", "serve-journal"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace, repeat int
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the inputs are generated from it")
	fs.IntVar(&cfg.seconds, "seconds", 30, "seconds one run measures")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs and fixed rep counts (self-test)")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/antdensity", "antdensity binary for serve-journal")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	child := fs.Bool("child", false, "run the workload in this process")
	fs.IntVar(&repeat, "repeat", 0, "steadiness mode: run each workload this many times")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	if *child {
		rep, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		fmt.Println(rep.line())
		return nil
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	} else if !known(cfg.workload) {
		return fmt.Errorf("unknown workload %q (valid: all, %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if repeat > 0 {
		return steady(cfg, names, repeat)
	}
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, err := runIsolated(c, true)
		if err != nil {
			return err
		}
		rep.printSummary(name)
		fmt.Println(rep.line())
	}
	return nil
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// runWorkload runs cfg's workload in this process.
func runWorkload(cfg config) (*report, error) {
	env, err := json.Marshal(benchenv.Capture())
	if err != nil {
		return nil, err
	}
	fmt.Printf("# benchenv %s\n", env)
	var rep *report
	var tr *tracer
	if cfg.workload == "serve-journal" {
		rep, tr, err = runServe(cfg)
	} else {
		for _, w := range inprocWorkloads {
			if w.name != cfg.workload {
				continue
			}
			if cfg.trace {
				rep, tr, err = traceInproc(w, cfg)
			} else {
				rep, err = measureInproc(w, cfg)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	if cfg.workload != "serve-journal" && !cfg.trace {
		// The parent adds peak_rss_mb from this process's rusage.
		return rep, nil
	}
	return rep, rep.complete(cfg.trace)
}

// runIsolated runs cfg's workload in a fresh child process and returns
// its report; the peak RSS of an in-process workload is the child's.
func runIsolated(cfg config, forward bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append(cfg.args(), "--child")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if forward {
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
	}
	var rep report
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", cfg.workload, err)
	}
	if cfg.workload != "serve-journal" && !cfg.trace {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no rusage for the child")
		}
		rep.set("peak_rss_mb", float64(ru.Maxrss)/1024)
		if err := rep.complete(false); err != nil {
			return nil, err
		}
	}
	return &rep, nil
}

// steady runs each named workload k times back to back and prints,
// per metric, the median, the quartiles, and the spread (interquartile
// distance over the median) against the metric's bound.
func steady(cfg config, names []string, k int) error {
	bounds := readBounds("BENCHMARK.json")
	ok := true
	for _, name := range names {
		values := make(map[string][]float64)
		for i := 0; i < k; i++ {
			c := cfg
			c.workload, c.seed = name, cfg.seed+uint64(i)
			rep, err := runIsolated(c, false)
			if err != nil {
				return err
			}
			if !rep.Correct {
				ok = false
			}
			for n, m := range rep.Metrics {
				values[n] = append(values[n], m.Value)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done (correct=%v)\n", name, c.seed, rep.Correct)
		}
		fmt.Printf("%-16s %-30s %6s %12s %12s %12s %8s %6s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			vs, found := values[d.name]
			if !found {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := (q3 - q1) / q2
			b, hasBound := bounds[d.name]
			verdict := ""
			if hasBound && !cfg.trace {
				verdict = fmt.Sprintf("%6.3f", b)
				if d.name != "setup_s" && !(spread <= b/3) {
					verdict += " WIDE"
					ok = false
				}
			}
			fmt.Printf("%-16s %-30s %6s %12.6g %12.6g %12.6g %8.4f %s\n", name, d.name, d.unit, q2, q1, q3, spread, verdict)
		}
	}
	fmt.Printf("{\"steady\": %v, \"runs_per_workload\": %d}\n", ok, k)
	return nil
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json;
// a missing or unreadable file gives no bounds.
func readBounds(path string) map[string]float64 {
	out := make(map[string]float64)
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var bm struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &bm) == nil {
		for _, m := range bm.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
