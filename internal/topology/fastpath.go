package topology

import "antdensity/internal/rng"

// This file holds the devirtualized fast-path kernels for the regular
// topologies and the CSR adjacency graph. The generic Graph interface
// costs two or three indirect calls plus node validation per
// random-walk step; the kernels below let hot loops (internal/sim's
// batched stepping, Walk/WalkPath, and internal/walk's Monte Carlo
// estimators) run arithmetic-only inner loops on concrete
// torus/ring/hypercube/complete types, and offsets/neighbors array
// loads on *Adj — so the social-network and expander experiments also
// leave the virtual Degree/Neighbor path.
//
// Every kernel is bit-compatible with the generic path: it consumes
// exactly the same draws from the same streams, in the same order, as
// Degree/Neighbor-based stepping, so switching between the two can
// never change a simulation's output.

// NeighborUnchecked is Neighbor without node or index validation, for
// hot paths whose positions and indices are maintained internally and
// known to be valid. Out-of-range arguments yield unspecified results
// or panics.
func (t *Torus) NeighborUnchecked(v int64, i int) int64 {
	return t.step(v, i>>1, 1-int64(i&1)<<1)
}

// NeighborUnchecked is Neighbor without node or index validation; see
// (*Torus).NeighborUnchecked.
func (h *Hypercube) NeighborUnchecked(v int64, i int) int64 {
	return v ^ (1 << uint(i))
}

// NeighborUnchecked is Neighbor without node or index validation; see
// (*Torus).NeighborUnchecked.
func (c *Complete) NeighborUnchecked(v int64, i int) int64 {
	if int64(i) < v {
		return int64(i)
	}
	return int64(i) + 1
}

// NeighborUnchecked is Neighbor without node or index validation; see
// (*Torus).NeighborUnchecked. For the CSR adjacency graph it is two
// array loads.
func (g *Adj) NeighborUnchecked(v int64, i int) int64 {
	return g.neighbors[g.offsets[v]+int64(i)]
}

// DegreeUnchecked is Degree without node validation; see
// (*Torus).NeighborUnchecked. For the CSR adjacency graph it is two
// array loads.
func (g *Adj) DegreeUnchecked(v int64) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// RandomStepFrom is RandomStep specialized to the CSR layout, without
// node validation: one offsets load selects v's neighbor slice, one
// uniform draw indexes it. Isolated nodes return v and consume no
// randomness, exactly like RandomStep.
func (g *Adj) RandomStepFrom(v int64, s *rng.Stream) int64 {
	lo, hi := g.offsets[v], g.offsets[v+1]
	d := int(hi - lo)
	if d == 0 {
		return v
	}
	return g.neighbors[lo+int64(s.Intn(d))]
}

// RandomSteps advances pos[k] by one uniformly random step drawing
// from streams[k], for every k — the bulk twin of RandomStep on the
// CSR layout: per-node degrees come from one subtraction, with no
// interface dispatch or validation in the loop. Each draw is bounded
// by its own node's degree, so it needs no fixed draw bound and serves
// irregular graphs; isolated nodes stay put and consume no randomness,
// exactly like RandomStep.
func (g *Adj) RandomSteps(pos []int64, streams []rng.Stream) {
	offsets, neighbors := g.offsets, g.neighbors
	for k := range pos {
		lo, hi := offsets[pos[k]], offsets[pos[k]+1]
		if d := int(hi - lo); d > 0 {
			pos[k] = neighbors[lo+int64(streams[k].Intn(d))]
		}
	}
}

// RandomStepsInto advances pos[k] by one uniformly random step drawing
// from streams[k], for every k, with the draws batched: one
// rng.Uint64nEach fill (one bounded draw per agent stream, written to
// the caller-owned draws buffer) followed by an arithmetic-only apply
// loop. Draw consumption per stream is identical to RandomStep, so the
// batched and scalar paths are interchangeable bit for bit; draws must
// have at least len(pos) elements, and pos, streams, and draws must be
// indexed alike.
func (t *Torus) RandomStepsInto(pos []int64, streams []rng.Stream, draws []uint64) {
	rng.Uint64nEach(streams, uint64(2*t.dims), draws)
	if t.dims == 2 {
		// The paper's sqrt(A) x sqrt(A) grid is the headline benchmark;
		// specialize it so each apply step costs one fastDiv, with the
		// coordinate (x for dim 0, y for dim 1) and its stride selected
		// by mask — the drawn dimension is random, so a branch on it
		// would mispredict half the time.
		side, rs := uint64(t.side), t.recipSide
		for k, d := range draws {
			v := uint64(pos[k])
			delta := int64(1) - int64(d&1)<<1
			y := int64(fastDiv(v, side, rs))
			x := int64(v) - y*t.side
			dimMask := -int64(d >> 1) // 0 for dim 0, -1 for dim 1
			coord := x ^ ((x ^ y) & dimMask)
			stride := int64(1) ^ ((int64(1) ^ t.side) & dimMask)
			next := coord + delta
			switch {
			case next == t.side:
				next = 0
			case next < 0:
				next = t.side - 1
			}
			pos[k] += (next - coord) * stride
		}
		return
	}
	for k, d := range draws {
		i := int(d)
		pos[k] = t.step(pos[k], i>>1, 1-int64(i&1)<<1)
	}
}

// RandomStepsInto advances every pos[k] by one batched uniformly
// random step; see (*Torus).RandomStepsInto.
func (h *Hypercube) RandomStepsInto(pos []int64, streams []rng.Stream, draws []uint64) {
	rng.Uint64nEach(streams, uint64(h.bits), draws)
	for k, d := range draws {
		pos[k] ^= 1 << uint(d)
	}
}

// RandomStepsInto advances every pos[k] by one batched uniformly
// random step; see (*Torus).RandomStepsInto.
func (c *Complete) RandomStepsInto(pos []int64, streams []rng.Stream, draws []uint64) {
	rng.Uint64nEach(streams, uint64(c.nodes-1), draws)
	for k, d := range draws {
		j := int64(d)
		if j >= pos[k] {
			j++
		}
		pos[k] = j
	}
}

// RandomStepsInto is RandomSteps with the draws batched, possible for
// the CSR graph only when it is regular (a fixed draw bound holds for
// every node); it reports false without touching anything otherwise,
// and callers fall back to RandomSteps. Regular graphs with isolated
// nodes do not exist (degree 0 everywhere means no edges, degree > 0
// somewhere breaks regularity), so the isolated-node no-draw rule of
// RandomStep cannot diverge here.
func (g *Adj) RandomStepsInto(pos []int64, streams []rng.Stream, draws []uint64) bool {
	if g.regular <= 0 {
		return false
	}
	rng.Uint64nEach(streams, uint64(g.regular), draws)
	offsets, neighbors := g.offsets, g.neighbors
	for k, d := range draws {
		pos[k] = neighbors[offsets[pos[k]]+int64(d)]
	}
	return true
}

// Stepper returns a uniform-random-step function for g with the
// Degree/Neighbor dispatch hoisted out: for the regular arithmetic
// topologies the returned closure calls the devirtualized kernels
// above, and for every other graph it falls back to RandomStep. The
// closure draws exactly the same stream values as RandomStep, so the
// two are interchangeable bit for bit. Like the kernels, the closure
// skips per-step node validation — callers starting from externally
// supplied nodes should check them once with ValidateNode. It is not
// safe for concurrent use with shared streams (streams themselves are
// not).
func Stepper(g Graph) func(v int64, s *rng.Stream) int64 {
	switch t := g.(type) {
	case *Torus:
		deg := 2 * t.dims
		return func(v int64, s *rng.Stream) int64 {
			i := s.Intn(deg)
			return t.step(v, i>>1, 1-int64(i&1)<<1)
		}
	case *Hypercube:
		bits := t.bits
		return func(v int64, s *rng.Stream) int64 {
			return v ^ 1<<uint(s.Intn(bits))
		}
	case *Complete:
		deg := int(t.nodes - 1)
		return func(v int64, s *rng.Stream) int64 {
			j := int64(s.Intn(deg))
			if j >= v {
				j++
			}
			return j
		}
	case *Adj:
		return t.RandomStepFrom
	default:
		return func(v int64, s *rng.Stream) int64 {
			return RandomStep(g, v, s)
		}
	}
}

// StepperBulk returns the batched twin of Stepper for single-walker
// Monte Carlo loops: fill(s, buf) fills buf with bounded draws exactly
// as len(buf) successive Stepper calls on s would consume them, and
// apply(v, draw) advances one position by one prefilled draw.
// Chaining fill over a walk's draws and apply over its positions
// yields bit-for-bit the same trajectory and final stream state as the
// scalar Stepper loop. ok is false when g has no fixed draw bound
// (irregular or edge-free Adj graphs, generic Graph implementations);
// callers then fall back to Stepper.
func StepperBulk(g Graph) (fill func(s *rng.Stream, buf []uint64), apply func(v int64, draw uint64) int64, ok bool) {
	switch t := g.(type) {
	case *Torus:
		deg := uint64(2 * t.dims)
		return func(s *rng.Stream, buf []uint64) { s.Uint64nBulk(deg, buf) },
			func(v int64, draw uint64) int64 {
				i := int(draw)
				return t.step(v, i>>1, 1-int64(i&1)<<1)
			}, true
	case *Hypercube:
		bits := uint64(t.bits)
		return func(s *rng.Stream, buf []uint64) { s.Uint64nBulk(bits, buf) },
			func(v int64, draw uint64) int64 { return v ^ 1<<uint(draw) }, true
	case *Complete:
		deg := uint64(t.nodes - 1)
		return func(s *rng.Stream, buf []uint64) { s.Uint64nBulk(deg, buf) },
			func(v int64, draw uint64) int64 {
				j := int64(draw)
				if j >= v {
					j++
				}
				return j
			}, true
	case *Adj:
		if t.regular <= 0 {
			return nil, nil, false
		}
		deg := uint64(t.regular)
		offsets, neighbors := t.offsets, t.neighbors
		return func(s *rng.Stream, buf []uint64) { s.Uint64nBulk(deg, buf) },
			func(v int64, draw uint64) int64 { return neighbors[offsets[v]+int64(draw)] }, true
	}
	return nil, nil, false
}
