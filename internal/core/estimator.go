// Package core implements the paper's primary contribution: density
// estimation from random-walk encounter rates.
//
// Algorithm1 is the paper's random-walk-based estimator (Section 3):
// each agent random-walks for t rounds, sums count(position) over the
// rounds, and returns the encounter rate c/t as its density estimate.
// Theorem 1 guarantees a (1 +- eps) estimate with probability 1-delta
// on the two-dimensional torus after t = O(log(1/delta) *
// [log log(1/delta) + log(1/(d*eps))]^2 / (d*eps^2)) rounds.
//
// Algorithm4 is the independent-sampling baseline of Appendix A, and
// PropertyFrequency is the Section 5.2 robot-swarm extension that
// estimates the relative frequency of a detectable property. The
// theory.go file provides the closed-form bound calculators used by
// the experiment harness to compare measured behaviour against the
// paper's predictions.
//
// The estimators are layered on sim's streaming observation pipeline:
// CollisionObserver and PropertyObserver accumulate each round's
// per-agent counts from the pipeline's shared bulk snapshots, and
// CollisionCounts/Algorithm1/PropertyFrequency are thin sim.Run
// drivers around them. StreamingEstimator.AsObserver plugs the
// anytime-confidence-band estimator into the same loop; the quorum
// package builds per-agent early stopping on the same band and stop
// rule (BandHalf, BandVerdict) through the round-band kernel
// RoundBand. Per the
// pipeline's determinism invariant, none of these observers' results
// depend on what other observers share the run.
package core

import (
	"fmt"
	"math"

	"antdensity/internal/rng"
	"antdensity/internal/sim"
)

// ReportFilter rewrites one round's per-agent reported counts before
// an estimator accumulates them — the injection point for the
// adversary layer (internal/adversary): honest agents' entries pass
// through, Byzantine agents' entries are replaced with whatever their
// fault strategy dictates. The filter must not mutate counts (it is
// the pipeline's shared snapshot or the observer's noise buffer);
// implementations return their own reusable buffer, keeping the hot
// path allocation-free in steady state. round is the 1-based round
// index (sim.Round.Index).
type ReportFilter func(round int, counts []int) []int

// options collects optional behaviour for the estimators.
type options struct {
	taggedOnly   bool
	detectProb   float64
	spuriousProb float64
	noiseSeed    uint64
	noisy        bool
	filter       ReportFilter
	taggedFilter ReportFilter
}

func defaultOptions() options {
	return options{detectProb: 1}
}

// Option configures an estimator run.
type Option func(*options) error

// WithTaggedOnly restricts collision counting to tagged agents,
// estimating the property density d_P of Section 5.2 instead of the
// total density d.
func WithTaggedOnly() Option {
	return func(o *options) error {
		o.taggedOnly = true
		return nil
	}
}

// WithNoise models imperfect collision sensing (Section 6.1): each
// true collision is detected independently with probability
// detectProb, and in each round a spurious collision is recorded with
// probability spuriousProb. seed drives the noise randomness.
func WithNoise(detectProb, spuriousProb float64, seed uint64) Option {
	return func(o *options) error {
		// The explicit NaN checks matter: NaN < 0 and NaN > 1 are both
		// false, so a plain range test would accept NaN and poison
		// every Binomial/Bernoulli draw in perturb.
		if math.IsNaN(detectProb) || detectProb < 0 || detectProb > 1 {
			return fmt.Errorf("core: detectProb %v outside [0, 1]", detectProb)
		}
		if math.IsNaN(spuriousProb) || spuriousProb < 0 || spuriousProb > 1 {
			return fmt.Errorf("core: spuriousProb %v outside [0, 1]", spuriousProb)
		}
		o.detectProb = detectProb
		o.spuriousProb = spuriousProb
		o.noiseSeed = seed
		o.noisy = true
		return nil
	}
}

// WithReportFilter interposes f between the pipeline's shared count
// snapshots and the estimator's accumulation: each round the observer
// feeds f the counts it is about to accumulate (the sensing-noise
// model, when enabled, has already been applied — tampering happens at
// reporting time) and accumulates f's output instead. The adversary
// layer (internal/adversary) builds its fault strategies as report
// filters; honest runs never pay for the hook.
func WithReportFilter(f ReportFilter) Option {
	return func(o *options) error {
		if f == nil {
			return fmt.Errorf("core: WithReportFilter needs a non-nil filter")
		}
		o.filter = f
		return nil
	}
}

// WithTaggedReportFilter interposes f over the tagged-count stream of
// a PropertyObserver (the property-bit channel of Section 5.2), the
// same way WithReportFilter covers the total-count stream. Within a
// round the total filter runs first — adversary implementations rely
// on that order to keep an agent's tagged report consistent with its
// total report. CollisionObserver ignores it (its single stream —
// tagged-only or total — is covered by WithReportFilter).
func WithTaggedReportFilter(f ReportFilter) Option {
	return func(o *options) error {
		if f == nil {
			return fmt.Errorf("core: WithTaggedReportFilter needs a non-nil filter")
		}
		o.taggedFilter = f
		return nil
	}
}

// CollisionObserver is the pipeline form of Algorithm 1's counting
// loop: each observed round it reads the whole round's counts from the
// shared snapshot and accumulates every agent's running total
// sum_r count(position_r) — the quantity c of Algorithm 1. It never
// stops on its own; the caller fixes the horizon via sim.Run's round
// budget.
type CollisionObserver struct {
	o      options
	noise  *rng.Stream
	buf    []int // noise scratch, allocated once; nil for exact sensing
	counts []int64
	rounds int
}

// NewCollisionObserver returns a CollisionObserver for n agents with
// the given estimator options.
func NewCollisionObserver(n int, opts ...Option) (*CollisionObserver, error) {
	o := defaultOptions()
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	co := &CollisionObserver{o: o, counts: make([]int64, n)}
	if o.noisy {
		co.noise = rng.New(o.noiseSeed)
		co.buf = make([]int, n)
	}
	return co, nil
}

// Observe accumulates one round's counts for every agent.
func (co *CollisionObserver) Observe(r *sim.Round) sim.Signal {
	var cs []int
	if co.o.taggedOnly {
		cs = r.TaggedCounts()
	} else {
		cs = r.Counts()
	}
	if co.o.noisy {
		for i, c := range cs {
			co.buf[i] = perturb(c, co.o, co.noise)
		}
		cs = co.buf
	}
	if co.o.filter != nil {
		cs = co.o.filter(r.Index(), cs)
	}
	for i, c := range cs {
		co.counts[i] += int64(c)
	}
	co.rounds++
	return sim.Continue
}

// Counts returns each agent's accumulated collision total. The slice
// is live; it keeps accumulating if observation continues.
func (co *CollisionObserver) Counts() []int64 { return co.counts }

// Estimates returns each agent's encounter-rate density estimate
// c/rounds — Algorithm 1's output at the current horizon, or all
// zeros before the first observed round (matching
// StreamingEstimator.Estimate).
func (co *CollisionObserver) Estimates() []float64 {
	out := make([]float64, len(co.counts))
	if co.rounds == 0 {
		return out
	}
	for i, c := range co.counts {
		out[i] = float64(c) / float64(co.rounds)
	}
	return out
}

// CollisionCounts advances w by t rounds through the streaming
// pipeline and returns each agent's total collision count
// sum_r count(position_r) — the quantity c maintained by Algorithm 1.
func CollisionCounts(w *sim.World, t int, opts ...Option) ([]int64, error) {
	if t < 1 {
		return nil, fmt.Errorf("core: round count must be >= 1, got %d", t)
	}
	obs, err := NewCollisionObserver(w.NumAgents(), opts...)
	if err != nil {
		return nil, err
	}
	sim.Run(w, t, obs)
	return obs.Counts(), nil
}

// perturb applies the WithNoise sensing model to one round's count:
// the c true collisions thin to Binomial(c, detectProb) detections
// (sampled in one draw; see rng.Stream.Binomial) and a spurious
// collision is added with probability spuriousProb.
func perturb(c int, o options, noise *rng.Stream) int {
	detected := c
	if o.detectProb < 1 {
		detected = noise.Binomial(c, o.detectProb)
	}
	if o.spuriousProb > 0 && noise.Bernoulli(o.spuriousProb) {
		detected++
	}
	return detected
}

// Algorithm1 runs the paper's random-walk-based density estimation
// (Algorithm 1) for t rounds on w and returns each agent's density
// estimate c/t. The world's agents should use the sim.RandomWalk
// policy (the default) for the Theorem 1 guarantees to apply; other
// policies realize the Section 6.1 perturbation ablations.
//
//antlint:testonly reference implementation: TestShimEquivalenceDensity, DensityNoisy and Quorum check the Spec path against it
func Algorithm1(w *sim.World, t int, opts ...Option) ([]float64, error) {
	counts, err := CollisionCounts(w, t, opts...)
	if err != nil {
		return nil, err
	}
	estimates := make([]float64, len(counts))
	for i, c := range counts {
		estimates[i] = float64(c) / float64(t)
	}
	return estimates, nil
}

// PropertyResult holds the per-agent outputs of PropertyFrequency.
type PropertyResult struct {
	// Density is each agent's estimate of the overall density d.
	Density []float64
	// PropertyDensity is each agent's estimate of the property
	// density d_P.
	PropertyDensity []float64
	// Frequency is each agent's estimate of f_P = d_P / d; NaN where
	// the density estimate is zero.
	Frequency []float64
}

// PropertyObserver is the pipeline form of the Section 5.2 swarm
// computation: each round it accumulates, per agent, both the total
// and the tagged collision counts from the shared snapshots.
type PropertyObserver struct {
	o         options
	noise     *rng.Stream
	totalBuf  []int // noise scratch, allocated once; nil for exact sensing
	taggedBuf []int
	total     []int64
	tagged    []int64
	rounds    int
}

// NewPropertyObserver returns a PropertyObserver for n agents.
func NewPropertyObserver(n int, opts ...Option) (*PropertyObserver, error) {
	o := defaultOptions()
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	po := &PropertyObserver{o: o, total: make([]int64, n), tagged: make([]int64, n)}
	if o.noisy {
		po.noise = rng.New(o.noiseSeed)
		po.totalBuf = make([]int, n)
		po.taggedBuf = make([]int, n)
	}
	return po, nil
}

// Observe accumulates one round's total and tagged counts.
func (po *PropertyObserver) Observe(r *sim.Round) sim.Signal {
	cts := r.Counts()
	cps := r.TaggedCounts()
	if po.o.noisy {
		for i := range cts {
			// Perturb the non-tagged and tagged components
			// separately so the two counters see consistent noise.
			other := perturb(cts[i]-cps[i], po.o, po.noise)
			prop := perturb(cps[i], po.o, po.noise)
			po.totalBuf[i] = other + prop
			po.taggedBuf[i] = prop
		}
		cts, cps = po.totalBuf, po.taggedBuf
	}
	// Total filter before tagged filter — the documented order
	// WithTaggedReportFilter implementations may rely on.
	if po.o.filter != nil {
		cts = po.o.filter(r.Index(), cts)
	}
	if po.o.taggedFilter != nil {
		cps = po.o.taggedFilter(r.Index(), cps)
	}
	for i := range cts {
		po.total[i] += int64(cts[i])
		po.tagged[i] += int64(cps[i])
	}
	po.rounds++
	return sim.Continue
}

// Result converts the accumulated counts into per-agent density,
// property-density, and frequency estimates at the current horizon.
func (po *PropertyObserver) Result() *PropertyResult {
	n := len(po.total)
	res := &PropertyResult{
		Density:         make([]float64, n),
		PropertyDensity: make([]float64, n),
		Frequency:       make([]float64, n),
	}
	for i := 0; i < n; i++ {
		res.Density[i], res.PropertyDensity[i], res.Frequency[i] = propertyEstimates(po.total[i], po.tagged[i], po.rounds)
	}
	return res
}

// Frequencies returns Result's Frequency alone: each agent's f_P
// estimate at the current horizon, in one allocation.
//
//antlint:testonly reference: the eager snapshot the root package's snapshot tests compare property views against
func (po *PropertyObserver) Frequencies() []float64 {
	return PropertyFrequencies(po.total, po.tagged, po.rounds)
}

// Counts returns each agent's accumulated total and tagged collision
// counts. The slices are live; they keep accumulating if observation
// continues.
func (po *PropertyObserver) Counts() (total, tagged []int64) { return po.total, po.tagged }

// PropertyFrequencies returns Frequencies for a copy of a
// PropertyObserver's counts after t observed rounds.
func PropertyFrequencies(total, tagged []int64, t int) []float64 {
	f := make([]float64, len(total))
	for i := range f {
		_, _, f[i] = propertyEstimates(total[i], tagged[i], t)
	}
	return f
}

// propertyEstimates returns the density, property-density, and
// frequency estimates (tagged/t)/(total/t) of one agent's counts.
func propertyEstimates(total, tagged int64, t int) (d, dP, f float64) {
	d = float64(total) / float64(t)
	dP = float64(tagged) / float64(t)
	return d, dP, dP / d
}

// PropertyFrequency implements the Section 5.2 swarm computation: each
// agent simultaneously tracks total encounters and encounters with
// tagged agents over t rounds, estimating the overall density d, the
// property density d_P, and the relative frequency f_P = d_P/d.
// Tag agents with w.SetTagged before calling.
//
//antlint:testonly reference implementation: TestShimEquivalenceProperty checks the Spec path against it
func PropertyFrequency(w *sim.World, t int, opts ...Option) (*PropertyResult, error) {
	if t < 1 {
		return nil, fmt.Errorf("core: round count must be >= 1, got %d", t)
	}
	obs, err := NewPropertyObserver(w.NumAgents(), opts...)
	if err != nil {
		return nil, err
	}
	sim.Run(w, t, obs)
	return obs.Result(), nil
}
