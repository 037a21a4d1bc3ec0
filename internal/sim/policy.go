package sim

import (
	"fmt"
	"math"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// Policy determines how an agent moves in each round.
//
// Step is the reference semantics of every policy. Uniform-policy
// worlds may advance all agents through a batched kernel instead
// (soa.go), which consumes exactly the draws Step would.
type Policy interface {
	// Step returns the agent's next position given its current
	// position on g, drawing randomness from s.
	Step(g topology.Graph, pos int64, s *rng.Stream) int64
}

// RandomWalk is the paper's randomly walking agent: each round it
// moves to a uniformly random neighbor (for the 2-D torus, a uniform
// choice among {(0,1),(0,-1),(1,0),(-1,0)}).
type RandomWalk struct{}

// Step moves to a uniformly random neighbor.
func (RandomWalk) Step(g topology.Graph, pos int64, s *rng.Stream) int64 {
	return topology.RandomStep(g, pos, s)
}

// Stationary is an agent that never moves — one half of the
// independent-sampling scheme of Appendix A.
type Stationary struct{}

// Step returns pos unchanged.
func (Stationary) Step(_ topology.Graph, pos int64, _ *rng.Stream) int64 { return pos }

// Drift moves deterministically along a fixed neighbor index each
// round (for the torus, index 0 is the +x direction — the "(0,1)" step
// of Algorithm 4; any fixed pattern works, as the paper notes).
type Drift struct {
	// Direction is the neighbor index to follow. It must be a valid
	// neighbor index at every node, which holds for all regular
	// topologies in this repository.
	Direction int
}

// Step moves along the fixed direction.
func (d Drift) Step(g topology.Graph, pos int64, _ *rng.Stream) int64 {
	return g.Neighbor(pos, d.Direction)
}

// Lazy stays put with probability StayProb and otherwise takes a
// uniform random step. The paper's general model allows the (0,0)
// step; Lazy is used in the Section 6.1 robustness ablation.
type Lazy struct {
	StayProb float64
}

// Step stays with probability StayProb, else moves to a random
// neighbor.
func (l Lazy) Step(g topology.Graph, pos int64, s *rng.Stream) int64 {
	if s.Bernoulli(l.StayProb) {
		return pos
	}
	return topology.RandomStep(g, pos, s)
}

// Biased chooses among neighbor indices with non-uniform weights — the
// Section 6.1 "perturbed behavior which assigns nonuniform
// probabilities to the steps" ablation. Weights need not be
// normalized. An agent at a node whose degree is less than
// len(Weights) panics, so Biased should be used with regular
// topologies.
type Biased struct {
	// Weights[i] is the relative probability of stepping to neighbor
	// index i. All weights must be finite and non-negative with a
	// positive sum.
	Weights []float64

	cumulative []float64
	total      float64
}

// NewBiased returns a Biased policy with precomputed cumulative
// weights. It returns an error if any weight is negative, NaN, or
// infinite, or if no weight is positive — a NaN or infinite weight
// would otherwise poison the cumulative total and make Step degenerate
// to a constant direction.
func NewBiased(weights []float64) (*Biased, error) {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("sim: step weight %v at index %d is not a finite non-negative number", w, i)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("sim: step weights must have positive sum")
	}
	return &Biased{Weights: weights, cumulative: cum, total: total}, nil
}

// pick maps one uniform [0,1) draw to a neighbor index via the
// cumulative weight table. The scalar Step and the batched path both
// reduce to pick over one uniform draw, so both consume identical
// randomness.
func (b *Biased) pick(u float64) int {
	x := u * b.total
	for i, c := range b.cumulative {
		if x < c {
			return i
		}
	}
	return len(b.cumulative) - 1
}

// Step samples a neighbor index proportionally to Weights.
func (b *Biased) Step(g topology.Graph, pos int64, s *rng.Stream) int64 {
	return g.Neighbor(pos, b.pick(s.Float64()))
}
