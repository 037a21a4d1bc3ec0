// Package quorum implements threshold detection on top of
// encounter-rate density estimation — the paper's motivating ant
// behavior (Temnothorax quorum sensing during house-hunting, [Pra05],
// discussed in Sections 1 and 6.2). An agent at a candidate nest site
// must decide whether the local population density exceeds a quorum
// threshold theta; per Section 6.2, the required round count depends
// on the detection threshold rather than the true density.
//
// The package provides per-agent votes on density estimates (Votes),
// the threshold-parameterized round bound (DetectionRounds),
// collective and trimmed majority voting, a streaming Detector with
// hysteresis for agents that monitor density continuously, and the
// anytime AnytimeDetector observer behind adaptive quorum runs. The
// root package's QuorumSpec and AdaptiveQuorumSpec run them.
package quorum

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"antdensity/internal/core"
	"antdensity/internal/sim"
)

// Votes thresholds per-agent density estimates into quorum votes.
func Votes(ests []float64, threshold float64) []bool {
	votes := make([]bool, len(ests))
	for i, e := range ests {
		votes[i] = e >= threshold
	}
	return votes
}

// TrimmedVoteFraction is the robust-aggregation form of a quorum
// vote (the adversarial suite's "trimmed quorum votes"): it sorts the
// per-agent estimates, drops the trim fraction from each tail —
// discarding the estimates Byzantine agents can place arbitrarily low
// or high — and returns the fraction of the surviving middle voting
// estimate >= threshold. trim must be in [0, 0.5); it panics
// otherwise, and returns 0 for no estimates.
func TrimmedVoteFraction(ests []float64, threshold, trim float64) float64 {
	mid := trimmedMiddle(ests, trim)
	if len(mid) == 0 {
		return 0
	}
	yes := 0
	for _, e := range mid {
		if e >= threshold {
			yes++
		}
	}
	return float64(yes) / float64(len(mid))
}

// TrimmedMajority reports whether more than half of the surviving
// middle estimates (see TrimmedVoteFraction) vote yes.
func TrimmedMajority(ests []float64, threshold, trim float64) bool {
	return TrimmedVoteFraction(ests, threshold, trim) > 0.5
}

// trimmedMiddle returns the sorted estimates with floor(trim*n)
// order statistics dropped from each tail.
func trimmedMiddle(ests []float64, trim float64) []float64 {
	if math.IsNaN(trim) || trim < 0 || trim >= 0.5 {
		panic(fmt.Sprintf("quorum: trim %v outside [0, 0.5)", trim))
	}
	if len(ests) == 0 {
		return nil
	}
	sorted := append([]float64(nil), ests...)
	sort.Float64s(sorted)
	k := int(trim * float64(len(sorted)))
	return sorted[k : len(sorted)-k]
}

// DetectionRounds returns a round count sufficient to distinguish
// d >= (1+eps)*threshold from d <= (1-eps)*threshold with probability
// 1-delta on the two-dimensional torus. Following the Section 6.2
// observation, it is Theorem 1's bound with the density replaced by
// the threshold: an agent need not know d to size its experiment,
// only the quorum level it must detect.
func DetectionRounds(threshold, eps, delta, c2 float64) int {
	return core.TheoremOneRounds(eps, delta, threshold, c2)
}

// MajorityVote reports whether more than half of the votes are true.
// House-hunting colonies effectively aggregate many scouts' individual
// quorum assessments; majority voting models the simplest aggregate.
func MajorityVote(votes []bool) bool {
	yes := 0
	for _, v := range votes {
		if v {
			yes++
		}
	}
	return 2*yes > len(votes)
}

// VoteFraction returns the fraction of true votes.
func VoteFraction(votes []bool) float64 {
	if len(votes) == 0 {
		return 0
	}
	yes := 0
	for _, v := range votes {
		if v {
			yes++
		}
	}
	return float64(yes) / float64(len(votes))
}

// Detector is a streaming quorum detector with hysteresis: it
// accumulates an agent's per-round collision counts and reports state
// transitions only when the running estimate crosses the enter
// threshold (upward) or the exit threshold (downward). Hysteresis
// (exit < enter) prevents flapping when the density sits near the
// quorum level.
//
// The zero value is not usable; construct with NewDetector.
type Detector struct {
	enter float64
	exit  float64

	rounds     int
	collisions int64
	inQuorum   bool
	// warmup rounds are ignored before the detector may first fire,
	// avoiding spurious triggers off tiny samples.
	warmup int
}

// NewDetector returns a streaming detector with the given enter and
// exit thresholds and a warmup period (rounds before the first
// decision; must be >= 1). It returns an error unless
// 0 < exit <= enter.
func NewDetector(enter, exit float64, warmup int) (*Detector, error) {
	if exit <= 0 || exit > enter {
		return nil, fmt.Errorf("quorum: need 0 < exit <= enter, got enter=%v exit=%v", enter, exit)
	}
	if warmup < 1 {
		return nil, fmt.Errorf("quorum: warmup must be >= 1, got %d", warmup)
	}
	return &Detector{enter: enter, exit: exit, warmup: warmup}, nil
}

// Observe feeds one round's collision count. It returns the
// detector's quorum state after the update.
func (d *Detector) Observe(count int) bool {
	if count < 0 {
		panic(fmt.Sprintf("quorum: negative collision count %d", count))
	}
	d.rounds++
	d.collisions += int64(count)
	if d.rounds < d.warmup {
		return d.inQuorum
	}
	est := d.Estimate()
	if d.inQuorum {
		if est < d.exit {
			d.inQuorum = false
		}
	} else if est >= d.enter {
		d.inQuorum = true
	}
	return d.inQuorum
}

// Estimate returns the running encounter-rate density estimate c/r,
// or 0 before any round was observed.
func (d *Detector) Estimate() float64 {
	if d.rounds == 0 {
		return 0
	}
	return float64(d.collisions) / float64(d.rounds)
}

// InQuorum returns the current hysteresis state.
func (d *Detector) InQuorum() bool { return d.inQuorum }

// AnytimeDetector is the Section 6.2 adaptive threshold observer:
// every agent keeps Algorithm 1's running estimate with its anytime
// confidence band and decides whether the density is above or below
// the threshold as soon as the band clears it. Band and stop rule are
// core.StreamingEstimator's (core.BandHalf, core.BandVerdict), taken
// from a core.RoundBand, so each round evaluates them once per
// distinct collision count. Decided agents are retired through the
// pipeline's active mask (recording per-agent stopping times), and the
// observer stops the run once every agent has decided — the windowed
// early-exit that replaces the fixed Theorem 1 horizon.
//
// A detector observes one run. It owns every agent it retires; per
// the sim.Observer contract it must be the only observer deactivating
// agents.
type AnytimeDetector struct {
	filter    core.ReportFilter
	band      *core.RoundBand
	counts    []int64
	est, half []float64 // each agent's interval, frozen once it decides
	decision  []int
	stopRound []int
	decided   int
}

// NewAnytimeDetector returns an AnytimeDetector for n agents deciding
// about threshold at confidence 1-delta, with c1 the Theorem 1
// constant shaping the confidence bands (see
// core.NewStreamingEstimator).
func NewAnytimeDetector(n int, threshold, delta, c1 float64) (*AnytimeDetector, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("quorum: threshold must be positive, got %v", threshold)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("quorum: delta must be in (0, 1), got %v", delta)
	}
	if c1 <= 0 {
		return nil, fmt.Errorf("quorum: c1 must be positive, got %v", c1)
	}
	a := &AnytimeDetector{
		band:      core.NewRoundBand(n, threshold, delta, c1),
		counts:    make([]int64, n),
		est:       make([]float64, n),
		half:      make([]float64, n),
		decision:  make([]int, n),
		stopRound: make([]int, n),
	}
	for i := range a.half {
		a.half[i] = math.Inf(1) // no round observed: no band yet
	}
	return a, nil
}

// SetReportFilter interposes f between the pipeline's shared count
// snapshot and the per-agent counts, exactly like
// core.WithReportFilter does for the fixed-horizon observers — the
// adversary layer's injection point into adaptive quorum runs. Call
// before the first observed round.
func (a *AnytimeDetector) SetReportFilter(f core.ReportFilter) { a.filter = f }

// Observe feeds every still-active agent its round count and retires
// agents whose confidence band cleared the threshold.
//
//antlint:noalloc
func (a *AnytimeDetector) Observe(r *sim.Round) sim.Signal {
	cs := r.Counts()
	if a.filter != nil {
		cs = a.filter(r.Index(), cs)
	}
	t := r.Index()
	for i := range a.counts {
		if !r.Active(i) {
			continue
		}
		if cs[i] < 0 {
			panic(fmt.Sprintf("quorum: negative collision count %d", cs[i]))
		}
		a.counts[i] += int64(cs[i])
		half, v := a.band.At(a.counts[i], t)
		a.est[i], a.half[i] = float64(a.counts[i])/float64(t), half
		if v != 0 {
			a.decision[i] = v
			a.stopRound[i] = t
			a.decided++
			r.Deactivate(i)
		}
	}
	if r.NumActive() == 0 {
		return sim.Stop
	}
	return sim.Continue
}

// Decision returns agent i's verdict: +1 (density above threshold),
// -1 (below), or 0 (undecided so far).
//
//antlint:testonly reference: the eager snapshot the root package's snapshot tests compare adaptive-quorum views against
func (a *AnytimeDetector) Decision(i int) int { return a.decision[i] }

// NumDecided returns the number of agents that have decided so far.
func (a *AnytimeDetector) NumDecided() int { return a.decided }

// Interval returns agent i's running density estimate and its anytime
// confidence half-width at the detector's 1-delta level (see
// core.StreamingEstimator.Interval). A decided agent keeps the
// interval of its stop round.
//
//antlint:testonly reference: the detector tests compare each agent's interval against core.StreamingEstimator's
func (a *AnytimeDetector) Interval(i int) (estimate, half float64) {
	return a.est[i], a.half[i]
}

// State returns the detector's live per-agent state: every agent's
// Interval and Decision. The slices keep changing while observation
// continues; copy what must outlive the round.
func (a *AnytimeDetector) State() (ests, half []float64, decision []int) {
	return a.est, a.half, a.decision
}

// Intervals returns every agent's Interval in two fresh slices.
func (a *AnytimeDetector) Intervals() (ests, half []float64) {
	return slices.Clone(a.est), slices.Clone(a.half)
}

// Result returns the decisions after a run of `rounds` observed
// rounds: undecided agents' stop rounds become `rounds`. The returned
// slices are the detector's own.
func (a *AnytimeDetector) Result(rounds int) *AnytimeResult {
	for i, d := range a.decision {
		if d == 0 {
			a.stopRound[i] = rounds
		}
	}
	return &AnytimeResult{Decision: a.decision, StopRound: a.stopRound, Rounds: rounds}
}

// AnytimeResult holds the outcome of an AnytimeDetector run.
type AnytimeResult struct {
	// Decision[i] is agent i's verdict: +1 above, -1 below, 0
	// undecided at the horizon.
	Decision []int
	// StopRound[i] is the round agent i decided; undecided agents
	// carry the executed round count.
	StopRound []int
	// Rounds is the number of rounds actually executed; below the
	// run's round budget when every agent decided early.
	Rounds int
}
