package core

import (
	"fmt"

	"antdensity/internal/rng"
	"antdensity/internal/sim"
)

// SetupAlgorithm4 assigns every agent of w its Appendix A role: with
// probability 1/2 "walking" (the deterministic (0,1) drift step every
// round) and otherwise "stationary" (never moving). seed drives the
// role coin flips. Algorithm4 calls it automatically; the facade's
// Spec runs call it before driving the observation pipeline.
func SetupAlgorithm4(w *sim.World, seed uint64) {
	coins := rng.New(seed)
	for i := 0; i < w.NumAgents(); i++ {
		if coins.Bernoulli(0.5) {
			w.SetPolicy(i, sim.Drift{Direction: 0})
		} else {
			w.SetPolicy(i, sim.Stationary{})
		}
	}
}

// IndependentObserver accumulates Algorithm 4's per-agent collision
// counts from the pipeline's shared bulk snapshots. The Appendix A
// estimate needs the full horizon t before the modulo reduction can
// cancel the lock-stepped spurious collisions, so estimates are read
// off relative to an explicit horizon (Estimates).
type IndependentObserver struct {
	counts []int64
}

// NewIndependentObserver returns an IndependentObserver for n agents.
func NewIndependentObserver(n int) *IndependentObserver {
	return &IndependentObserver{counts: make([]int64, n)}
}

// Observe accumulates one round's counts for every agent.
func (o *IndependentObserver) Observe(r *sim.Round) sim.Signal {
	for i, c := range r.Counts() {
		o.counts[i] += int64(c)
	}
	return sim.Continue
}

// Estimates applies the Appendix A reduction at horizon t: each
// agent's count is reduced modulo t — exactly cancelling the t
// spurious collisions contributed by every lock-stepped walking agent
// that started on the same square — and scaled to 2c/t. t must be the
// horizon the counts were accumulated over for the cancellation
// argument to hold; intermediate horizons give the anytime (but
// biased) view the facade's snapshots report.
func (o *IndependentObserver) Estimates(t int) []float64 {
	return IndependentEstimates(o.counts, t)
}

// Counts returns each agent's accumulated collision total. The slice
// is live; it keeps accumulating if observation continues.
func (o *IndependentObserver) Counts() []int64 { return o.counts }

// IndependentEstimates applies Estimates' Appendix A reduction at
// horizon t to a copy of an IndependentObserver's counts.
func IndependentEstimates(counts []int64, t int) []float64 {
	estimates := make([]float64, len(counts))
	for i, c := range counts {
		c %= int64(t)
		estimates[i] = 2 * float64(c) / float64(t)
	}
	return estimates
}

// Algorithm4 implements the independent-sampling-based density
// estimation of Appendix A. Each agent independently becomes
// "walking" with probability 1/2 (taking the deterministic (0,1) step
// every round) or "stationary" (never moving). After t rounds of
// accumulating count(position), each agent reduces its count modulo t
// — exactly canceling the t spurious collisions contributed by each
// lock-stepped walking agent that started on the same square — and
// returns 2c/t.
//
// Theorem 32 guarantees a (1 +- eps) estimate with probability
// 1-delta after t = Theta(log(1/delta)/(d*eps^2)) rounds, provided
// t < sqrt(A) and d <= 1.
//
// Algorithm4 overrides every agent's movement policy in w; seed
// drives the walking/stationary coin flips. It returns per-agent
// estimates.
//
//antlint:testonly reference implementation: TestShimEquivalenceIndependent checks the Spec path against it
func Algorithm4(w *sim.World, t int, seed uint64) ([]float64, error) {
	if t < 1 {
		return nil, fmt.Errorf("core: round count must be >= 1, got %d", t)
	}
	SetupAlgorithm4(w, seed)
	obs := NewIndependentObserver(w.NumAgents())
	sim.Run(w, t, obs)
	return obs.Estimates(t), nil
}
