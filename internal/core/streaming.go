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

// RoundBand is the round-band kernel: BandHalf for every agent of a
// round, evaluated once per distinct collision count. The band depends
// on an agent only through its count c and the round t, so the kernel
// memoizes BandHalf(c/t, t, delta, c1) by count in scratch reused
// across rounds. The memo holds at most one entry per agent (counts
// below n, grown as larger counts appear); a count beyond it is
// evaluated by the same call, so a round evaluates BandHalf at most
// once per distinct count inside the bound and never more than n
// times. With a threshold, each entry also carries BandVerdict's stop
// rule, so the rule too runs once per distinct count.
//
// A RoundBand is single-goroutine scratch.
type RoundBand struct {
	n                    int
	threshold, delta, c1 float64
	memo                 []bandEntry
}

// bandEntry is one count's memoized band; round 0 marks it empty.
type bandEntry struct {
	round   int
	half    float64
	verdict int
}

// NewRoundBand returns the kernel for n agents at confidence 1-delta
// with Theorem 1 constant c1. A positive threshold is the one At's
// verdict decides about; 0 means the caller applies no stop rule.
func NewRoundBand(n int, threshold, delta, c1 float64) *RoundBand {
	return &RoundBand{n: n, threshold: threshold, delta: delta, c1: c1}
}

// At returns the band half-width BandHalf(c/t, t, delta, c1) of an
// agent that counted c collisions in t >= 1 rounds and, with a
// threshold, BandVerdict's decision about it (0 without one).
//
//antlint:noalloc
func (b *RoundBand) At(c int64, t int) (half float64, verdict int) {
	if b.hit(c, t) {
		return b.memo[c].half, b.memo[c].verdict
	}
	e := b.fill(c, t)
	return e.half, e.verdict
}

// Fill sets ests[i] to the running estimate counts[i]/t and half[i] to
// its At half-width for every agent, and returns the sum of ests in
// agent order.
//
//antlint:noalloc
func (b *RoundBand) Fill(counts []int64, t int, ests, half []float64) (sum float64) {
	ests, half = ests[:len(counts)], half[:len(counts)]
	for i, c := range counts {
		ests[i] = float64(c) / float64(t)
		if b.hit(c, t) {
			half[i] = b.memo[c].half
		} else {
			half[i] = b.fill(c, t).half
		}
		sum += ests[i]
	}
	return sum
}

// hit reports whether the memo holds count c's band for round t. The
// unsigned compare sends a negative count past the memo to BandHalf,
// which rejects it.
func (b *RoundBand) hit(c int64, t int) bool {
	return uint64(c) < uint64(len(b.memo)) && b.memo[c].round == t && t > 0
}

// fill evaluates count c's band at round t, storing it when c is
// inside the memo's bound.
//
//antlint:noalloc
func (b *RoundBand) fill(c int64, t int) bandEntry {
	if t < 1 {
		panic(fmt.Sprintf("core: round-band round must be >= 1, got %d", t))
	}
	if uint64(c) >= uint64(len(b.memo)) && uint64(c) < uint64(b.n) {
		size := min(b.n, max(int(c)+1, 2*len(b.memo)))
		b.memo = append(b.memo, make([]bandEntry, size-len(b.memo))...) //antlint:allocok memo growth to the largest count seen, at most n entries; steady rounds reuse it
	}
	est := float64(c) / float64(t)
	e := bandEntry{round: t, half: BandHalf(est, t, b.delta, b.c1)}
	if b.threshold > 0 {
		e.verdict = BandVerdict(est, e.half, t, b.threshold, b.delta)
	}
	if uint64(c) < uint64(len(b.memo)) {
		b.memo[c] = e
	}
	return e
}

// AboveThreshold reports the estimator's decision about a density
// threshold at confidence 1-delta: +1 when the whole confidence band
// lies above threshold, -1 when it lies below, 0 while undecided (see
// BandVerdict).
func (e *StreamingEstimator) AboveThreshold(threshold, delta float64) int {
	if threshold <= 0 {
		panic(fmt.Sprintf("core: threshold must be positive, got %v", threshold))
	}
	est, half := e.Interval(delta)
	return BandVerdict(est, half, e.rounds, threshold, delta)
}

// BandVerdict is the one anytime stop rule: given a running estimate
// est after rounds rounds and its band half-width half at confidence
// 1-delta, it returns +1 when the whole band lies above threshold, -1
// when it lies below, and 0 while undecided.
func BandVerdict(est, half float64, rounds int, threshold, delta float64) int {
	switch {
	case math.IsInf(half, 1):
		// No collisions yet: the estimate is 0 and we cannot bound d
		// multiplicatively. We can still decide "below" once enough
		// rounds have passed that a density at the threshold would
		// almost surely have produced a collision: the count is
		// Binomial(t, d)-like with mean t*threshold.
		if float64(rounds)*threshold > math.Log(1/delta)*3 {
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
