package core

import (
	"fmt"
	"math"

	"antdensity/internal/sim"
)

// StreamingEstimator is an incremental version of Algorithm 1 with
// anytime confidence intervals: an agent feeds it one count(position)
// reading per round and can at any time read off the running density
// estimate together with a (1-delta) confidence band shaped like
// Theorem 1's bound, eps(t) = c * sqrt(log(1/delta)/(t*d-hat)) *
// log(2t), with the plug-in estimate d-hat.
//
// This realizes the "agents only need to detect when d is above some
// fixed threshold" usage of Section 6.2: an agent can stop as soon as
// its confidence band clears the threshold in either direction.
//
// The zero value is unusable; construct with NewStreamingEstimator.
type StreamingEstimator struct {
	c1     float64
	rounds int
	count  int64
}

// NewStreamingEstimator returns a streaming estimator using the given
// Theorem 1 constant (c1 = 0.35 reproduces the empirical calibration
// of experiment E02; larger is more conservative). It returns an
// error if c1 <= 0.
func NewStreamingEstimator(c1 float64) (*StreamingEstimator, error) {
	if c1 <= 0 {
		return nil, fmt.Errorf("core: c1 must be positive, got %v", c1)
	}
	return &StreamingEstimator{c1: c1}, nil
}

// Observe feeds one round's collision count.
func (e *StreamingEstimator) Observe(count int) {
	if count < 0 {
		panic(fmt.Sprintf("core: negative collision count %d", count))
	}
	e.rounds++
	e.count += int64(count)
}

// Rounds returns the number of observed rounds t.
func (e *StreamingEstimator) Rounds() int { return e.rounds }

// Estimate returns the running encounter rate c/t (0 before the first
// round).
func (e *StreamingEstimator) Estimate() float64 {
	if e.rounds == 0 {
		return 0
	}
	return float64(e.count) / float64(e.rounds)
}

// Interval returns the running estimate and an additive half-width
// such that, per Theorem 1's shape, the true density lies within
// [estimate - half, estimate + half] with probability about 1-delta.
// Before any collision is seen, the half-width is +Inf (the agent has
// no multiplicative handle on d yet).
func (e *StreamingEstimator) Interval(delta float64) (estimate, half float64) {
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("core: delta must be in (0, 1), got %v", delta))
	}
	estimate = e.Estimate()
	return estimate, BandHalf(estimate, e.rounds, delta, e.c1)
}

// BandHalf is the one anytime band: the additive half-width around a
// running encounter rate est after rounds rounds, in Theorem 1's shape
// at confidence 1-delta with constant c1. It is +Inf before the first
// collision (est == 0 gives no multiplicative handle on d).
func BandHalf(est float64, rounds int, delta, c1 float64) float64 {
	if rounds == 0 || est == 0 {
		return math.Inf(1)
	}
	// The plug-in density for the bound lives in (0, 1]; the running
	// encounter rate can transiently exceed 1 in dense worlds (several
	// collisions in one round), so clamp before evaluating Theorem 1.
	plugin := est
	if plugin > 1 {
		plugin = 1
	}
	return TheoremOneEpsilon(rounds, plugin, delta, c1) * est
}

// AboveThreshold reports the estimator's decision about a density
// threshold at confidence 1-delta: +1 when the whole confidence band
// lies above threshold, -1 when it lies below, 0 while undecided.
func (e *StreamingEstimator) AboveThreshold(threshold, delta float64) int {
	if threshold <= 0 {
		panic(fmt.Sprintf("core: threshold must be positive, got %v", threshold))
	}
	est, half := e.Interval(delta)
	switch {
	case math.IsInf(half, 1):
		// No collisions yet: the estimate is 0 and we cannot bound d
		// multiplicatively. We can still decide "below" once enough
		// rounds have passed that a density at the threshold would
		// almost surely have produced a collision: the count is
		// Binomial(t, d)-like with mean t*threshold.
		if float64(e.rounds)*threshold > math.Log(1/delta)*3 {
			return -1
		}
		return 0
	case est-half > threshold:
		return +1
	case est+half < threshold:
		return -1
	default:
		return 0
	}
}

// Reset clears all observations.
func (e *StreamingEstimator) Reset() {
	e.rounds = 0
	e.count = 0
}

// AsObserver adapts the estimator to the sim pipeline: each observed
// round it feeds the estimator the given agent's count from the shared
// snapshot. It never stops on its own; callers that stop on a
// threshold decision wrap it (see AboveThreshold) or use the quorum
// package's anytime detector.
func (e *StreamingEstimator) AsObserver(agent int) sim.Observer {
	return sim.ObserverFunc(func(r *sim.Round) sim.Signal {
		e.Observe(r.Counts()[agent])
		return sim.Continue
	})
}
