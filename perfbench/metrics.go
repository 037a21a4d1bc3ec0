package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's schema; BENCHMARK.json lists the same
// names and units (the self-test checks that they agree).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},          // graph build + Spec.NewRun; serve: restart until the first 2xx
	{"result_p50_ms", "ms"},   // median time to a result: Start → Result → WriteJSON; serve: POST → result body
	{"throughput_rps", "1/s"}, // results completed per second of measured work
	{"cpu_ms", "ms"},          // CPU time of the working process per result
	{"peak_rss_mb", "MB"},     // peak resident set of the working process
}

// perLayer are the metrics of single layers, reported by traced runs.
// Times per result or per agent-round are given for the layers every
// workload exercises; the other layers are given as shares (frac) so a
// workload that bypasses a layer reports an honest 0 in a unit that is
// not a time.
var perLayer = []metricDef{
	{"antdensity.run_s", "s"},                // Run.Start → Result, per result
	{"antdensity.new_run_s", "s"},            // Spec.NewRun
	{"results.encode_s", "s"},                // results.WriteJSON of the Result
	{"sim.new_world_s", "s"},                 // sim.NewWorld
	{"sim.step_ns", "ns"},                    // World.Step on an uncounted twin, per agent-round
	{"sim.occupancy_ns", "ns"},               // counted Runner.Step minus twin Step minus observer spans, per agent-round
	{"sim.count_ns", "ns"},                   // Round.Counts, per agent-round
	{"env.calib_ms", "ms"},                   // fixed pure-ALU loop, median of start and end samples
	{"antdensity.snapshot_frac", "frac"},     // (run_s at the workload's SnapshotEvery − at SnapshotEvery=rounds) / run_s
	{"antdensity.unattributed_frac", "frac"}, // run_s not covered by the replayed layers or snapshots / run_s
	{"sim.step_frac", "frac"},                // shares of run_s unless noted
	{"sim.occupancy_frac", "frac"},
	{"sim.count_frac", "frac"},
	{"sim.count_tagged_frac", "frac"},      // Round.TaggedCounts
	{"core.observe_frac", "frac"},          // CollisionObserver / PropertyObserver.Observe
	{"rng.fill_frac", "frac"},              // rng.Uint64nEach at the workload's agent count
	{"topology.step_frac", "frac"},         // Torus.RandomStepsInto minus its fill
	{"topology.spectral_gap_frac", "frac"}, // topology.SpectralGap as netsize calls it
	{"netsize.burnin_frac", "frac"},        // Walkers.BurnIn
	{"netsize.count_frac", "frac"},         // Walkers.EstimateSize
	{"socialnet.build_frac", "frac"},       // socialnet.BarabasiAlbert, share of setup
	{"serve.submit_frac", "frac"},          // POST, share of the request
	{"serve.wait_frac", "frac"},            // SSE until the end event, share of the request
	{"serve.result_frac", "frac"},          // GET result, share of the request
	{"serve.tail_ratio", "ratio"},          // p99 over p50 request latency
	{"serve.cache_hit_frac", "frac"},       // submissions answered "cached": true
	{"journal.append_frac", "frac"},        // inline submit Append+fsync, share of the request
	{"journal.replay_frac", "frac"},        // journal.Open + Reduce of the warm-up journal, share of setup
	{"trace.overhead_frac", "frac"},        // traced over untraced time to result, minus 1
	{"sim.agent_rounds", "count"},          // per result
	{"core.collisions", "count"},           // collisions the core observer counted, per result
	{"results.bytes", "count"},             // encoded result size
	{"netsize.burnin_rounds", "count"},
	{"netsize.queries", "count"},       // link queries, per result
	{"journal.bytes_per_run", "count"}, // submit + terminal record bytes per journaled run, timestamps excluded
	{"serve.requests", "count"},        // requests in the measured pass
	{"runtime.gc_cycles", "count"},     // GC cycles per result
	{"runtime.alloc_mb", "MB"},         // bytes allocated per result
	{"trace.spans", "count"},           // spans recorded
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport returns an empty report. A traced report starts with every
// per-layer metric at 0, which is what a workload that bypasses a
// layer reports.
func newReport(traced bool) *report {
	r := &report{Metrics: make(map[string]metric)}
	if traced {
		for _, d := range perLayer {
			r.Metrics[d.name] = metric{0, d.unit}
		}
	}
	return r
}

// set records a metric of the schema; an unknown name is a bug.
func (r *report) set(name string, v float64) {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if d.name == name {
				r.Metrics[name] = metric{v, d.unit}
				return
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the schema")
}

// fail counts one failed operation and logs why.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// complete checks that the report carries exactly the metrics of its
// mode, each finite, and sets the verdict.
func (r *report) complete(traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("report has %d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	r.Correct = r.Failed == 0
	return nil
}

// printSummary writes a human-readable table of the report.
func (r *report) printSummary(workload string) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("#   %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func (r *report) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// median returns the middle value (the mean of the two middle values
// for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of
// statistics.quantiles(xs, n=4) (the default exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		v := median(xs)
		return v, v, v
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-quantile, p in (0, 1].
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuTime returns this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed pure-ALU loop, so host drift shows next to
// the numbers of a run.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(t0)) / 1e6
}

// calibSamples takes three calibration samples.
func calibSamples() []float64 {
	return []float64{calibrate(), calibrate(), calibrate()}
}

// memSnapshot reads the allocation and GC counters.
func memSnapshot() (alloc uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}

// splitmix derives the k-th input seed from the workload seed, so the
// program only ever sees generated inputs.
func splitmix(seed, k uint64) uint64 {
	z := seed + k*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
