// Package walk measures the random-walk quantities at the heart of
// the paper's analysis: re-collision probabilities between two walks
// (Lemma 4 on the 2-D torus, Lemma 20 on the ring, Lemma 22 on
// k-dimensional tori, Lemma 23 on expanders, Lemma 25 on hypercubes),
// equalization (return-to-origin) probabilities (Corollary 10), and
// equalization and collision count moments (Lemma 11, Corollaries 15
// and 16). All estimates are Monte Carlo
// over explicit trials with deterministic seeds. Every walking loop
// hoists its per-step dispatch through topology.Stepper — and, where
// the graph has a fixed draw bound, batches its randomness in chunks
// through topology.StepperBulk — both bit-identical to
// topology.RandomStep but devirtualized and amortized for the regular
// topologies.
package walk

import (
	"fmt"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// RecollisionCurve estimates, for every m in [0, maxM], the
// probability that two independent random walks started at the same
// node occupy the same node after exactly m further steps — the
// quantity bounded by the paper's re-collision lemmas. The walks both
// start at start; probabilities are averaged over trials pairs of
// walks.
//
// Note that both walks step in every round, so their difference
// process moves by the difference of two unit steps — an even-parity
// move. Two walks from a common origin can therefore re-collide at
// any m, even on bipartite graphs; the paper's parity remark (agents
// at odd distance never meet) concerns agents with odd *initial*
// separation, and the Corollary 10 parity claim concerns a single
// walk returning to its origin.
func RecollisionCurve(g topology.Graph, start int64, maxM, trials int, s *rng.Stream) []float64 {
	validate(maxM, trials)
	topology.ValidateNode(g, start)
	wk := newWalker(g)
	hits := make([]int, maxM+1)
	visit := func(m int, p1, p2 int64) {
		if p1 == p2 {
			hits[m]++
		}
	}
	for trial := 0; trial < trials; trial++ {
		s1 := s.Split(uint64(2 * trial))
		s2 := s.Split(uint64(2*trial + 1))
		hits[0]++ // both walks begin at the collision node
		wk.runPair(start, start, maxM, s1, s2, visit)
	}
	curve := make([]float64, maxM+1)
	for m, h := range hits {
		curve[m] = float64(h) / float64(trials)
	}
	return curve
}

// EqualizationCurve estimates, for every m in [0, maxM], the
// probability that a single random walk is back at its origin after
// exactly m steps (Corollary 10: Theta(1/(m+1)) + O(1/A) for even m
// on the 2-D torus, 0 for odd m).
func EqualizationCurve(g topology.Graph, start int64, maxM, trials int, s *rng.Stream) []float64 {
	validate(maxM, trials)
	topology.ValidateNode(g, start)
	wk := newWalker(g)
	hits := make([]int, maxM+1)
	visit := func(m int, p int64) {
		if p == start {
			hits[m]++
		}
	}
	for trial := 0; trial < trials; trial++ {
		str := s.Split(uint64(trial))
		hits[0]++
		wk.run(start, maxM, str, visit)
	}
	curve := make([]float64, maxM+1)
	for m, h := range hits {
		curve[m] = float64(h) / float64(trials)
	}
	return curve
}

// SumCurve returns B(t) = sum_{m=0..t} curve[m] for each prefix
// length, i.e. out[t] is the empirical B(t) of Lemma 19. The returned
// slice has the same length as curve.
func SumCurve(curve []float64) []float64 {
	out := make([]float64, len(curve))
	var sum float64
	for m, p := range curve {
		sum += p
		out[m] = sum
	}
	return out
}

// EqualizationCounts returns, for each of trials independent t-step
// walks from a uniformly random start, the number of returns to the
// starting node — the equalization count whose moments Corollary 16
// bounds by k! w^k log^k(2t).
func EqualizationCounts(g topology.Graph, t, trials int, s *rng.Stream) []float64 {
	validate(t, trials)
	wk := newWalker(g)
	out := make([]float64, trials)
	var start int64
	count := 0
	visit := func(_ int, p int64) {
		if p == start {
			count++
		}
	}
	for trial := 0; trial < trials; trial++ {
		str := s.Split(uint64(trial))
		start = topology.RandomNode(g, str)
		count = 0
		wk.run(start, t, str, visit)
		out[trial] = float64(count)
	}
	return out
}

// PairCollisionCounts returns, for each of trials independent
// experiments, the number of rounds (out of t) in which two
// independently and uniformly placed random walks are co-located —
// the collision count c_j whose moments Lemma 11 bounds by
// (t w^k / A) k! log^k(2t).
func PairCollisionCounts(g topology.Graph, t, trials int, s *rng.Stream) []float64 {
	validate(t, trials)
	wk := newWalker(g)
	out := make([]float64, trials)
	count := 0
	visit := func(_ int, p1, p2 int64) {
		if p1 == p2 {
			count++
		}
	}
	for trial := 0; trial < trials; trial++ {
		s1 := s.Split(uint64(2 * trial))
		s2 := s.Split(uint64(2*trial + 1))
		p1 := topology.RandomNode(g, s1)
		p2 := topology.RandomNode(g, s2)
		count = 0
		wk.runPair(p1, p2, t, s1, s2, visit)
		out[trial] = float64(count)
	}
	return out
}

func validate(steps, trials int) {
	if steps < 0 {
		panic(fmt.Sprintf("walk: step count must be >= 0, got %d", steps))
	}
	if trials < 1 {
		panic(fmt.Sprintf("walk: trials must be >= 1, got %d", trials))
	}
}
