package experiments

// This file is the shared parallel trial runner. Every experiment's
// Monte Carlo loop runs through RunTrials: independent trials fan out
// over a bounded worker pool, each trial draws all of its randomness
// from a private rng substream derived from (spec seed, trial index),
// and results are aggregated strictly in trial-index order. Both
// properties together make every aggregate bit-identical regardless
// of the worker count, so parallelism can never change a reported
// number.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"antdensity"
	"antdensity/internal/rng"
	"antdensity/internal/stats"
)

// Trial identifies one independent trial of a TrialSpec.
type Trial struct {
	// Index is the trial number in [0, TrialSpec.Trials).
	Index int
	// Seed is a deterministic function of (spec seed, Index); pass it
	// to components that take integer seeds, such as sim.Config.
	Seed uint64
	// Stream is the trial's private substream for components that
	// consume rng.Streams directly. It is independent of Seed.
	Stream *rng.Stream
}

// TrialResult carries one trial's measurements back to the
// aggregator.
type TrialResult struct {
	// Samples are pooled across trials in index order by
	// ExperimentResult.Samples, or averaged element-wise by MeanCurve.
	Samples []float64
	// Values holds named per-trial scalars, read back through
	// ExperimentResult.Value, ValueSlice, MeanValue, and SumValue.
	Values map[string]float64
}

// Set records a named scalar, allocating Values on first use.
func (r *TrialResult) Set(name string, v float64) {
	if r.Values == nil {
		r.Values = make(map[string]float64)
	}
	r.Values[name] = v
}

// weightKey is the reserved Values entry read by MeanCurve.
const weightKey = "__weight"

// SetWeight records the trial's weight for MeanCurve aggregation;
// unweighted trials count as 1.
func (r *TrialResult) SetWeight(w float64) { r.Set(weightKey, w) }

// TrialSpec describes a family of independent trials. Trials must not
// share mutable state: everything a trial randomizes has to come from
// its Trial's Seed or Stream, or results stop being reproducible.
type TrialSpec struct {
	// Name labels the spec in error messages.
	Name string
	// Trials is the number of independent trials; must be >= 1.
	Trials int
	// Seed is the base seed; per-trial substreams derive from it and
	// the trial index.
	Seed uint64
	// Run executes one trial.
	Run func(t Trial) (TrialResult, error)
}

// RunConfig controls how a TrialSpec executes.
type RunConfig struct {
	// Workers bounds the number of concurrently running trials;
	// <= 0 means runtime.GOMAXPROCS(0). Aggregates are identical for
	// every value.
	Workers int
}

// ExperimentResult holds an executed TrialSpec's per-trial results in
// index order plus aggregation helpers.
type ExperimentResult struct {
	Spec   TrialSpec
	Trials []TrialResult

	pooled []float64
}

// runTrial executes one trial, converting a panic into an error: a
// trial runs on a pool goroutine, where an uncaught panic would kill
// the whole process — unacceptable for panics reachable from
// user-supplied sweep axis values (e.g. a negative step count hitting
// library validation).
func runTrial(spec TrialSpec, t Trial) (res TrialResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trial panicked: %v", r)
		}
	}()
	return spec.Run(t)
}

// RunTrials executes spec's trials on cfg.Workers goroutines and
// collects the results. The first error (by trial index) aborts the
// run and is returned wrapped with the spec name and trial index.
// A panicking trial is reported as an error the same way.
func RunTrials(spec TrialSpec, cfg RunConfig) (*ExperimentResult, error) {
	if spec.Run == nil {
		return nil, fmt.Errorf("experiments: TrialSpec %q has nil Run", spec.Name)
	}
	if spec.Trials < 1 {
		return nil, fmt.Errorf("experiments: TrialSpec %q needs >= 1 trials, got %d", spec.Name, spec.Trials)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Trials {
		workers = spec.Trials
	}
	results := make([]TrialResult, spec.Trials)
	errs := make([]error, spec.Trials)
	base := rng.New(spec.Seed)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= spec.Trials || failed.Load() {
					return
				}
				// Split reads the parent state without advancing it,
				// so deriving substreams concurrently is safe and
				// yields the same streams in any schedule.
				sub := base.Split(uint64(i))
				res, err := runTrial(spec, Trial{
					Index:  i,
					Seed:   sub.Split(0).Uint64(),
					Stream: sub.Split(1),
				})
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s trial %d: %w", spec.Name, i, err)
		}
	}
	return &ExperimentResult{Spec: spec, Trials: results}, nil
}

// RunSpec runs spec to completion and returns its output, its
// structured result and its terminal snapshot. It is the one way the
// experiments and the CLI run an estimator, so a published table and a
// served result for the same Spec and seed are one computation. Only
// the terminal snapshot is read, and a run always publishes it, so
// spec publishes no others: each costs a pass over every agent.
func RunSpec(spec *antdensity.Spec) (antdensity.Output, *antdensity.RunResult, antdensity.Snapshot, error) {
	spec.SnapshotEvery = spec.Rounds
	run, err := spec.Start(context.Background())
	if err != nil {
		return antdensity.Output{}, nil, antdensity.Snapshot{}, err
	}
	out, err := run.Output()
	if err != nil {
		return antdensity.Output{}, nil, antdensity.Snapshot{}, err
	}
	res, err := run.Result()
	return out, res, run.Snapshot(), err
}

// Samples returns every trial's samples concatenated in trial-index
// order. The slice is cached; callers must not mutate it.
func (r *ExperimentResult) Samples() []float64 {
	if r.pooled == nil {
		n := 0
		for _, t := range r.Trials {
			n += len(t.Samples)
		}
		pooled := make([]float64, 0, n)
		for _, t := range r.Trials {
			pooled = append(pooled, t.Samples...)
		}
		r.pooled = pooled
	}
	return r.pooled
}

// Mean returns the mean of the pooled samples.
func (r *ExperimentResult) Mean() float64 { return stats.Mean(r.Samples()) }

// StdDev returns the population standard deviation of the pooled
// samples.
func (r *ExperimentResult) StdDev() float64 { return stats.StdDev(r.Samples()) }

// TrialMeans returns each trial's sample mean in trial-index order,
// skipping trials that returned no samples.
func (r *ExperimentResult) TrialMeans() []float64 {
	out := make([]float64, 0, len(r.Trials))
	for _, t := range r.Trials {
		if len(t.Samples) > 0 {
			out = append(out, stats.Mean(t.Samples))
		}
	}
	return out
}

// CI95 returns the 95% confidence-interval half-width of the mean,
// computed over per-trial means: trials are the independent unit —
// samples within a trial (e.g. per-agent estimates sharing one
// world's collision history) are correlated, so pooling them into
// one CI would understate the uncertainty.
func (r *ExperimentResult) CI95() float64 { return stats.MeanCI95(r.TrialMeans()) }

// Value returns the named scalar from the first trial that set it. It
// panics if no trial did — a programming error in the spec.
func (r *ExperimentResult) Value(name string) float64 {
	for _, t := range r.Trials {
		if v, ok := t.Values[name]; ok {
			return v
		}
	}
	panic(fmt.Sprintf("experiments: value %q not set by any %q trial", name, r.Spec.Name))
}

// ValueSlice returns the named scalar from every trial in index
// order, skipping trials that did not set it.
func (r *ExperimentResult) ValueSlice(name string) []float64 {
	out := make([]float64, 0, len(r.Trials))
	for _, t := range r.Trials {
		if v, ok := t.Values[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// MeanValue returns the mean of the named scalar across the trials
// that set it.
func (r *ExperimentResult) MeanValue(name string) float64 {
	return stats.Mean(r.ValueSlice(name))
}

// SumValue returns the sum of the named scalar across the trials that
// set it.
func (r *ExperimentResult) SumValue(name string) float64 {
	var sum float64
	for _, v := range r.ValueSlice(name) {
		sum += v
	}
	return sum
}

// MeanCurve element-wise averages every trial's Samples, weighted by
// each trial's SetWeight value (1 if unset). All trials must return
// Samples of equal length. This serves the Monte Carlo curve
// experiments, which split a large trial budget into fixed blocks so
// the block count — not the worker count — determines the result.
func (r *ExperimentResult) MeanCurve() []float64 {
	if len(r.Trials) == 0 {
		return nil
	}
	n := len(r.Trials[0].Samples)
	out := make([]float64, n)
	var total float64
	for i, t := range r.Trials {
		if len(t.Samples) != n {
			panic(fmt.Sprintf("experiments: MeanCurve on %q: trial %d has %d samples, trial 0 has %d",
				r.Spec.Name, i, len(t.Samples), n))
		}
		w := 1.0
		if v, ok := t.Values[weightKey]; ok {
			w = v
		}
		total += w
		for m, v := range t.Samples {
			out[m] += w * v
		}
	}
	for m := range out {
		out[m] /= total
	}
	return out
}
