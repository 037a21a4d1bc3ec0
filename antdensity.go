package antdensity

// This file is the library's public facade: the type aliases and
// constructors shared by the Spec/Run layer (spec.go, run.go,
// manager.go) and its callers. Estimation runs through a Spec:
//
//	run, _ := antdensity.DensitySpec(
//	        antdensity.WithTorus2D(200),
//	        antdensity.WithAgents(2001),
//	        antdensity.WithSeed(42),
//	        antdensity.WithRounds(2000),
//	).Start(ctx)
//	snap := run.Snapshot()          // anytime, from any goroutine
//	out, _ := run.Output()          // blocks; out.Estimates

import (
	"antdensity/internal/core"
	"antdensity/internal/netsize"
	"antdensity/internal/quorum"
	"antdensity/internal/rng"
	"antdensity/internal/sim"
	"antdensity/internal/topology"
)

// Graph is a finite undirected graph whose nodes are [0, NumNodes()).
// All estimator functions accept any Graph.
type Graph = topology.Graph

// Torus is the k-dimensional torus topology (the paper's grid model;
// k=1 is the ring of Section 4.2, k=2 the headline two-dimensional
// surface).
type Torus = topology.Torus

// NewTorus2D returns the paper's sqrt(A) x sqrt(A) two-dimensional
// torus with the given side length.
func NewTorus2D(side int64) (*Torus, error) { return topology.NewTorus(2, side) }

// NewTorus returns a k-dimensional torus.
func NewTorus(dims int, side int64) (*Torus, error) { return topology.NewTorus(dims, side) }

// NewRing returns the cycle on n nodes.
func NewRing(n int64) (*Torus, error) { return topology.NewRing(n) }

// NewHypercube returns the k-dimensional Boolean hypercube (Section
// 4.5).
func NewHypercube(bits int) (*topology.Hypercube, error) { return topology.NewHypercube(bits) }

// NewComplete returns the complete graph on n nodes — the paper's
// fast-mixing baseline.
func NewComplete(n int64) (*topology.Complete, error) { return topology.NewComplete(n) }

// NewRandomRegular samples a random d-regular expander on n nodes
// (Section 4.4) using randomness from the given seed.
func NewRandomRegular(n int64, d int, seed uint64) (*topology.Adj, error) {
	return topology.NewRandomRegular(n, d, rng.New(seed))
}

// World is the synchronous multi-agent simulation of the paper's
// Section 2 model.
type World = sim.World

// WorldConfig configures a World.
type WorldConfig = sim.Config

// NewWorld creates a simulation world; see WorldConfig for the knobs
// (graph, agent count, seed, placement, movement policy).
func NewWorld(cfg WorldConfig) (*World, error) { return sim.NewWorld(cfg) }

// EstimatorOption configures the estimators (noisy sensing, tagged
// counting); see WithNoise and WithTaggedOnly.
type EstimatorOption = core.Option

// WithNoise models imperfect collision sensing (Section 6.1).
func WithNoise(detectProb, spuriousProb float64, seed uint64) EstimatorOption {
	return core.WithNoise(detectProb, spuriousProb, seed)
}

// WithTaggedOnly counts only collisions with tagged agents,
// estimating a property density d_P (Section 5.2).
func WithTaggedOnly() EstimatorOption { return core.WithTaggedOnly() }

// PropertyResult is the per-agent output of a property-frequency run
// (Output.Property).
type PropertyResult = core.PropertyResult

// StreamingEstimator is an incremental Algorithm 1 with anytime
// confidence intervals and threshold decisions (Section 6.2).
type StreamingEstimator = core.StreamingEstimator

// NewStreamingEstimator returns a streaming estimator; c1 is the
// Theorem 1 constant used for its confidence bands (0.35 matches the
// repository's empirical calibration; larger is more conservative).
func NewStreamingEstimator(c1 float64) (*StreamingEstimator, error) {
	return core.NewStreamingEstimator(c1)
}

// RequiredRounds returns Theorem 1's sufficient round count for a
// (1 +- eps) density estimate with probability 1-delta at density d
// on the two-dimensional torus, with the universal constant set to
// c2.
func RequiredRounds(eps, delta, d, c2 float64) int {
	return core.TheoremOneRounds(eps, delta, d, c2)
}

// QuorumAnytimeResult is the output of an adaptive quorum run
// (Output.Anytime): per-agent decisions and stopping rounds.
type QuorumAnytimeResult = quorum.AnytimeResult

// NetworkSizeResult is the output of a network-size run
// (Output.NetworkSize).
type NetworkSizeResult = netsize.Result
