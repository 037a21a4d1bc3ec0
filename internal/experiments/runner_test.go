package experiments

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"antdensity/internal/results"
)

// collatzSpec is a deterministic spec whose per-trial output depends
// only on the trial's substream, so aggregate equality across worker
// counts is meaningful.
func collatzSpec(trials int, seed uint64) TrialSpec {
	return TrialSpec{
		Name:   "runner-test",
		Trials: trials,
		Seed:   seed,
		Run: func(t Trial) (TrialResult, error) {
			var r TrialResult
			for k := 0; k < 5; k++ {
				r.Samples = append(r.Samples, t.Stream.Float64())
			}
			r.Set("seedlow", float64(t.Seed%1000))
			r.Set("index", float64(t.Index))
			return r, nil
		},
	}
}

func TestRunTrialsWorkerCountInvariance(t *testing.T) {
	counts := []int{1, 2, 3, 8, runtime.NumCPU()}
	spec := collatzSpec(37, 99)
	ref, err := RunTrials(spec, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range counts {
		got, err := RunTrials(spec, RunConfig{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got.Trials, ref.Trials) {
			t.Fatalf("workers=%d produced different per-trial results than workers=1", w)
		}
		for i, s := range got.Samples() {
			if s != ref.Samples()[i] {
				t.Fatalf("workers=%d: pooled sample %d = %v, want %v", w, i, s, ref.Samples()[i])
			}
		}
	}
}

func TestRunTrialsOrderingAndDerivation(t *testing.T) {
	res, err := RunTrials(collatzSpec(16, 7), RunConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 16 {
		t.Fatalf("got %d trial results, want 16", len(res.Trials))
	}
	// Results land at their own index regardless of completion order.
	for i, tr := range res.Trials {
		if got := tr.Values["index"]; got != float64(i) {
			t.Errorf("trial slot %d holds result of trial %v", i, got)
		}
	}
	// Distinct trials get distinct streams: with 5 draws each, any
	// collision across 16 trials would be astronomically unlikely.
	seen := map[float64]bool{}
	for _, s := range res.Samples() {
		if seen[s] {
			t.Fatalf("duplicate sample %v across trials: substreams not independent", s)
		}
		seen[s] = true
	}
}

func TestRunTrialsErrorAborts(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int64
	spec := TrialSpec{
		Name:   "failing",
		Trials: 1000,
		Run: func(t Trial) (TrialResult, error) {
			ran.Add(1)
			if t.Index == 3 {
				return TrialResult{}, sentinel
			}
			return TrialResult{}, nil
		},
	}
	_, err := RunTrials(spec, RunConfig{Workers: 4})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "failing") || !strings.Contains(err.Error(), "trial") {
		t.Errorf("error %q does not name the spec and trial", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("all %d trials ran despite early failure", n)
	}
}

func TestRunTrialsValidation(t *testing.T) {
	if _, err := RunTrials(TrialSpec{Trials: 1}, RunConfig{}); err == nil {
		t.Error("nil Run accepted")
	}
	spec := TrialSpec{Run: func(Trial) (TrialResult, error) { return TrialResult{}, nil }}
	if _, err := RunTrials(spec, RunConfig{}); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestExperimentResultAggregation(t *testing.T) {
	spec := TrialSpec{
		Name:   "agg",
		Trials: 4,
		Run: func(tr Trial) (TrialResult, error) {
			r := TrialResult{Samples: []float64{float64(tr.Index), float64(tr.Index) + 10}}
			r.Set("q", float64(tr.Index)*2)
			if tr.Index%2 == 0 {
				r.Set("even", 1)
			}
			return r, nil
		},
	}
	res, err := RunTrials(spec, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantPool := []float64{0, 10, 1, 11, 2, 12, 3, 13}
	if !reflect.DeepEqual(res.Samples(), wantPool) {
		t.Errorf("Samples() = %v, want %v", res.Samples(), wantPool)
	}
	if got := res.Mean(); got != 6.5 {
		t.Errorf("Mean = %v, want 6.5", got)
	}
	if got := res.Value("q"); got != 0 {
		t.Errorf("Value(q) = %v, want 0 (first trial)", got)
	}
	if got := res.ValueSlice("even"); len(got) != 2 {
		t.Errorf("ValueSlice(even) = %v, want 2 entries", got)
	}
	if got := res.SumValue("q"); got != 12 {
		t.Errorf("SumValue(q) = %v, want 12", got)
	}
	if got := res.MeanValue("q"); got != 3 {
		t.Errorf("MeanValue(q) = %v, want 3", got)
	}
	if ci := res.CI95(); ci <= 0 || math.IsInf(ci, 1) {
		t.Errorf("CI95 = %v, want finite positive", ci)
	}
}

func TestMeanCurveWeighted(t *testing.T) {
	spec := TrialSpec{
		Name:   "curve",
		Trials: 3,
		Run: func(tr Trial) (TrialResult, error) {
			// Trial i contributes a constant curve of value i with
			// weight i+1: weighted mean = (0*1 + 1*2 + 2*3)/6 = 4/3.
			r := TrialResult{Samples: []float64{float64(tr.Index), float64(tr.Index)}}
			r.SetWeight(float64(tr.Index + 1))
			return r, nil
		},
	}
	res, err := RunTrials(spec, RunConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	curve := res.MeanCurve()
	want := 4.0 / 3.0
	for m, v := range curve {
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("MeanCurve[%d] = %v, want %v", m, v, want)
		}
	}
}

// TestExperimentsWorkerInvariance is the acceptance test for the
// parallel runner: every registered experiment must produce
// bit-identical results — table cells, metrics and notes, compared as
// their exact JSON encoding — for workers=1 and workers=NumCPU. Each
// pass first clears the experiment's sweep-shared measurements, which
// are keyed by seed and mode but not by worker count, so the parallel
// pass measures them itself. The parallel side runs at least 4
// workers so the concurrent path is genuinely exercised (goroutines
// interleave even on one core) — comparing 1 vs NumCPU alone would be
// vacuous on a 1-CPU host.
func TestExperimentsWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	parWorkers := runtime.NumCPU()
	if parWorkers < 4 {
		parWorkers = 4
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) []byte {
				clearMemo(e.ID)
				res, err := e.RunResult(Params{Seed: 12345, Quick: true, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var buf bytes.Buffer
				if err := results.WriteJSON(&buf, res); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			r1, rN := run(1), run(parWorkers)
			if !bytes.Equal(r1, rN) {
				t.Errorf("results differ between worker counts:\n--- workers=1\n%s\n--- workers=%d\n%s", r1, parWorkers, rN)
			}
		})
	}
}

func BenchmarkRunTrialsSequential(b *testing.B) { benchRunner(b, 1) }
func BenchmarkRunTrialsParallel(b *testing.B)   { benchRunner(b, 0) }

func benchRunner(b *testing.B, workers int) {
	e, ok := ByID("E01")
	if !ok {
		b.Fatal("E01 not registered")
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(Params{Seed: 1, Quick: true, Out: io.Discard, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}
