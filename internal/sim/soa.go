package sim

import (
	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// hotState is the structure-of-arrays layout of everything the inner
// round loop touches per agent: parallel flat slices indexed by agent
// id. Positions, previous positions, and RNG streams are the
// authoritative state; draws and floats are caller-owned scratch
// buffers the batched kernels fill once per round (allocated lazily
// by ensureScratch, only for policy/topology pairs with a batched
// path). The per-agent active mask of the observation pipeline lives
// in Round.active, completing the SoA set.
//
// World embeds hotState anonymously, so w.pos[i], w.prev[i],
// w.streams[i], w.draws[i], and w.floats[i] are always element i of
// parallel arrays — the invariant the batched kernels rely on.
// Sharded worlds embed one hotState per shard slab (sharded.go),
// indexed by slab slot instead of agent id; the kernels below take
// the graph explicitly so both layouts share them unchanged.
type hotState struct {
	pos          []int64
	prev         []int64 // previous round's positions, for incremental occupancy updates
	streams      []rng.Stream
	draws        []uint64  // scratch: one bounded draw per agent per round
	floats       []float64 // scratch: one uniform [0,1) draw per agent per round
	scratchReady bool
}

// scratchNeeds reports which batched-RNG scratch buffers the given
// uniform policy needs on g: draws for bounded-integer batching,
// floats for coin/weight batching. Policy/topology pairs that need
// neither either batch without scratch (the random walk on an
// irregular CSR graph) or take the scalar path.
func scratchNeeds(p Policy, g topology.Graph) (needDraws, needFloats bool) {
	switch pl := p.(type) {
	case RandomWalk:
		needDraws = fixedDrawBound(g)
	case Lazy:
		switch {
		case pl.StayProb <= 0:
			// Bernoulli consumes no draw at p <= 0; the policy is a
			// plain random walk and batches through draws alone.
			needDraws = fixedDrawBound(g)
		case pl.StayProb < 1:
			needFloats = batchedGraph(g)
			// p >= 1 consumes no randomness at all: nothing to batch.
		}
	case *Biased:
		if r, ok := g.(topology.Regular); ok && len(pl.cumulative) <= r.CommonDegree() {
			switch g.(type) {
			case *topology.Torus, *topology.Hypercube, *topology.Complete:
				needFloats = true
			}
		}
	}
	return needDraws, needFloats
}

// ensureScratch sizes the batched-RNG scratch buffers for the world's
// uniform policy, once. Worlds with per-agent policy overrides, or
// policy/topology pairs that need no scratch, allocate nothing.
// Called before stepping; the buffers are sized for all agents.
func (w *World) ensureScratch() {
	if w.scratchReady {
		return
	}
	w.scratchReady = true
	if w.uniform == nil {
		return
	}
	needDraws, needFloats := scratchNeeds(w.uniform, w.graph)
	if needDraws {
		w.draws = make([]uint64, len(w.pos))
	}
	if needFloats {
		w.floats = make([]float64, len(w.pos))
	}
}

// fixedDrawBound reports whether g supports batched uniform steps: a
// single draw bound valid at every node (the arithmetic regular
// topologies, and CSR graphs that are regular with positive degree).
func fixedDrawBound(g topology.Graph) bool {
	switch t := g.(type) {
	case *topology.Torus, *topology.Hypercube, *topology.Complete:
		return true
	case *topology.Adj:
		d, ok := t.IsRegular()
		return ok && d > 0
	}
	return false
}

// batchedGraph reports whether g has any devirtualized kernel the
// float-batching policies (Lazy) can pair with.
func batchedGraph(g topology.Graph) bool {
	switch g.(type) {
	case *topology.Torus, *topology.Hypercube, *topology.Complete, *topology.Adj:
		return true
	}
	return false
}

// stepUniform advances every agent of h one round under the shared
// policy p on g: one batched dispatch when the policy/topology pair
// has a batched kernel, otherwise the scalar reference loop. Both
// consume identical draws per agent stream, so the choice never
// changes output.
func (h *hotState) stepUniform(g topology.Graph, p Policy) {
	if h.stepBatched(g, p) {
		return
	}
	for k := range h.pos {
		h.pos[k] = p.Step(g, h.pos[k], &h.streams[k])
	}
}

// stepBatched advances every agent of h on g through a batched kernel,
// reporting false (with state untouched) when the policy/topology pair
// has none or its scratch was not provisioned. Draw consumption per
// agent stream is identical to the scalar Step — the kernels' inline
// bounded draws and rng.FloatEach make exactly the draws the
// per-agent calls would — so the two paths are interchangeable bit
// for bit.
func (h *hotState) stepBatched(g topology.Graph, p Policy) bool {
	switch pl := p.(type) {
	case RandomWalk:
		return h.randomWalkBatched(g)
	case Lazy:
		if pl.StayProb <= 0 {
			return h.randomWalkBatched(g)
		}
		if pl.StayProb >= 1 || h.floats == nil {
			return false
		}
		return h.lazyBatched(g, pl.StayProb)
	case *Biased:
		return h.biasedBatched(g, pl)
	}
	return false
}

// randomWalkBatched is stepBatched's uniform-random-walk kernel: one
// pass that draws each agent's step from its stream and applies it
// with arithmetic (RandomStepsInto). A CSR graph with no fixed draw
// bound gets no draws scratch; it steps in one pass of
// (*Adj).RandomSteps, which bounds each agent's draw by its own node's
// degree and makes it inline.
func (h *hotState) randomWalkBatched(g topology.Graph) bool {
	pos, streams := h.pos, h.streams
	if h.draws == nil {
		t, ok := g.(*topology.Adj)
		if ok {
			t.RandomSteps(pos, streams)
		}
		return ok
	}
	draws := h.draws[:len(pos)]
	switch t := g.(type) {
	case *topology.Torus:
		t.RandomStepsInto(pos, streams, draws)
	case *topology.Hypercube:
		t.RandomStepsInto(pos, streams, draws)
	case *topology.Complete:
		t.RandomStepsInto(pos, streams, draws)
	case *topology.Adj:
		return t.RandomStepsInto(pos, streams, draws)
	default:
		return false
	}
	return true
}

// lazyBatched batches the stay/move coins of Lazy with 0 < p < 1: one
// FloatEach fill for the coins, then a move pass drawing each mover's
// neighbor from its own stream. Coin k compares f[k] < p exactly as
// Bernoulli does, and movers draw in agent order, so consumption per
// stream matches the scalar Step draw for draw.
func (h *hotState) lazyBatched(g topology.Graph, stayProb float64) bool {
	pos, streams := h.pos, h.streams
	f := h.floats[:len(pos)]
	switch t := g.(type) {
	case *topology.Torus:
		rng.FloatEach(streams, f)
		deg := t.CommonDegree()
		for k, x := range f {
			if x >= stayProb {
				pos[k] = t.NeighborUnchecked(pos[k], streams[k].Intn(deg))
			}
		}
	case *topology.Hypercube:
		rng.FloatEach(streams, f)
		deg := t.CommonDegree()
		for k, x := range f {
			if x >= stayProb {
				pos[k] = t.NeighborUnchecked(pos[k], streams[k].Intn(deg))
			}
		}
	case *topology.Complete:
		rng.FloatEach(streams, f)
		deg := t.CommonDegree()
		for k, x := range f {
			if x >= stayProb {
				pos[k] = t.NeighborUnchecked(pos[k], streams[k].Intn(deg))
			}
		}
	case *topology.Adj:
		rng.FloatEach(streams, f)
		for k, x := range f {
			if x >= stayProb {
				pos[k] = t.RandomStepFrom(pos[k], &streams[k])
			}
		}
	default:
		return false
	}
	return true
}

// biasedBatched batches Biased's weighted direction draws: one
// FloatEach fill, then table lookups through the same cumulative
// search as the scalar sample.
func (h *hotState) biasedBatched(g topology.Graph, b *Biased) bool {
	if h.floats == nil {
		return false
	}
	r, ok := g.(topology.Regular)
	if !ok || len(b.cumulative) > r.CommonDegree() {
		return false
	}
	pos, streams := h.pos, h.streams
	f := h.floats[:len(pos)]
	switch t := g.(type) {
	case *topology.Torus:
		rng.FloatEach(streams, f)
		for k, x := range f {
			pos[k] = t.NeighborUnchecked(pos[k], b.pick(x))
		}
	case *topology.Hypercube:
		rng.FloatEach(streams, f)
		for k, x := range f {
			pos[k] = t.NeighborUnchecked(pos[k], b.pick(x))
		}
	case *topology.Complete:
		rng.FloatEach(streams, f)
		for k, x := range f {
			pos[k] = t.NeighborUnchecked(pos[k], b.pick(x))
		}
	default:
		return false
	}
	return true
}
