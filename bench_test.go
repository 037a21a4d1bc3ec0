package antdensity_test

// One benchmark per reproduction experiment (see the README's
// experiment index). Each bench regenerates its experiment's
// series in quick mode — sized so the full bench suite completes in
// minutes — and reports the experiment's headline metric through
// b.ReportMetric. Full-size tables are produced by
// `go run ./cmd/antdensity run <id>` (without -quick).

import (
	"flag"
	"io"
	"testing"

	"antdensity/internal/experiments"
)

// workers is threaded into every benchmarked experiment's trial
// runner; metrics are identical for any value, only wall clock moves.
// Example: go test -bench=. -workers=1 for the sequential baseline.
var workers = flag.Int("workers", 0, "trial-runner goroutines per experiment (0 = all CPUs)")

// benchExperiment runs experiment id once per iteration and reports
// the named metric from the final run.
func benchExperiment(b *testing.B, id, metric string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		out, err := e.Run(experiments.Params{Seed: uint64(4000 + i), Quick: true, Out: io.Discard, Workers: *workers})
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := out.Metrics[metric]; ok {
			last = v
		} else {
			b.Fatalf("metric %q missing from %s", metric, id)
		}
	}
	b.ReportMetric(last, metric)
}

func BenchmarkExpE01Unbiased(b *testing.B)        { benchExperiment(b, "E01", "max_abs_bias") }
func BenchmarkExpE02ThmOneScaling(b *testing.B)   { benchExperiment(b, "E02", "slope") }
func BenchmarkExpE03TorusVsComplete(b *testing.B) { benchExperiment(b, "E03", "torus_over_complete") }
func BenchmarkExpE04Recollision2D(b *testing.B)   { benchExperiment(b, "E04", "decay_exponent") }
func BenchmarkExpE05Equalization(b *testing.B)    { benchExperiment(b, "E05", "decay_exponent") }
func BenchmarkExpE06Moments(b *testing.B)         { benchExperiment(b, "E06", "max_var_ratio") }
func BenchmarkExpE07Ring(b *testing.B)            { benchExperiment(b, "E07", "recollision_exponent") }
func BenchmarkExpE08HighDimTorus(b *testing.B)    { benchExperiment(b, "E08", "exponent_k3") }
func BenchmarkExpE09Expander(b *testing.B)        { benchExperiment(b, "E09", "lambda") }
func BenchmarkExpE10Hypercube(b *testing.B)       { benchExperiment(b, "E10", "violations") }
func BenchmarkExpE11BtSummary(b *testing.B)       { benchExperiment(b, "E11", "growth_ring") }
func BenchmarkExpE12IndepSampling(b *testing.B)   { benchExperiment(b, "E12", "slope") }
func BenchmarkExpE13SwarmProperty(b *testing.B)   { benchExperiment(b, "E13", "max_abs_bias") }
func BenchmarkExpE14NetSize(b *testing.B)         { benchExperiment(b, "E14", "bias_torus3d") }
func BenchmarkExpE15AvgDegree(b *testing.B)       { benchExperiment(b, "E15", "scaled_spread") }
func BenchmarkExpE16QueryTradeoff(b *testing.B)   { benchExperiment(b, "E16", "query_ratio") }
func BenchmarkExpE17BurnIn(b *testing.B)          { benchExperiment(b, "E17", "bias_fullburn") }
func BenchmarkExpE18NoiseAblation(b *testing.B)   { benchExperiment(b, "E18", "baseline") }
func BenchmarkExpE19QuorumCurve(b *testing.B)     { benchExperiment(b, "E19", "sharp_long") }
func BenchmarkExpE20TaskAllocation(b *testing.B)  { benchExperiment(b, "E20", "final_l1") }
func BenchmarkExpE21SensorSampling(b *testing.B)  { benchExperiment(b, "E21", "inflation_torus2d") }
func BenchmarkExpE22LocalDensity(b *testing.B)    { benchExperiment(b, "E22", "clustered_over_global") }
func BenchmarkExpE23PathCross(b *testing.B)       { benchExperiment(b, "E23", "gain") }
func BenchmarkExpE24AdaptiveDetect(b *testing.B)  { benchExperiment(b, "E24", "correct_4") }
func BenchmarkExpE25QueryScaling(b *testing.B)    { benchExperiment(b, "E25", "query_ratio_largest") }
