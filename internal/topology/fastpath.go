package topology

import (
	"math/bits"

	"antdensity/internal/rng"
)

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
// node validation: one offsets load selects v's neighbor slice, and a
// bounded draw made inline on *s (drawBelow, as in RandomSteps)
// indexes it. Isolated nodes return v and consume no randomness,
// exactly like RandomStep.
//
//antlint:noalloc
func (g *Adj) RandomStepFrom(v int64, s *rng.Stream) int64 {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if lo == hi {
		return v
	}
	x, next := s.Next()
	*s = next
	return g.neighbors[lo+int64(drawBelow(x, uint64(hi-lo), s))]
}

// RandomSteps advances pos[k] by one uniformly random step drawing
// from streams[k], for every k — the bulk twin of RandomStep on the
// CSR layout: per-node degrees come from one subtraction, with no
// interface dispatch or validation in the loop. Each draw is bounded
// by its own node's degree, so it needs no fixed draw bound and serves
// irregular graphs, and it is made inline on the stream value
// (drawBelow): the loop calls nothing unless a draw's low product half
// falls below the degree, which has probability below degree/2^64.
// Each stream advances exactly as (*rng.Stream).Intn(degree) would
// advance it, and isolated nodes stay put and consume no randomness,
// exactly like RandomStep.
//
//antlint:noalloc
func (g *Adj) RandomSteps(pos []int64, streams []rng.Stream) {
	offsets, neighbors := g.offsets, g.neighbors
	streams = streams[:len(pos)]
	for k, v := range pos {
		lo, hi := offsets[v], offsets[v+1]
		if lo == hi {
			continue
		}
		x, s := streams[k].Next()
		streams[k] = s
		pos[k] = neighbors[lo+int64(drawBelow(x, uint64(hi-lo), &streams[k]))]
	}
}

// RandomStepsInto advances pos[k] by one uniformly random step drawing
// from streams[k], for every k, in one pass: each agent's bounded draw
// is made inline exactly as rng.Uint64nEach makes it (Lemire's method
// with the threshold hoisted out of the loop, rejection redraws
// included), stored in draws[k], and applied while the agent's stream
// and position are in registers. Draw consumption per stream is
// identical to RandomStep, so the batched and scalar paths are
// interchangeable bit for bit, and draws[k] is the neighbor index the
// scalar step would draw. draws must have at least len(pos) elements,
// and pos, streams, and draws must be indexed alike.
func (t *Torus) RandomStepsInto(pos []int64, streams []rng.Stream, draws []uint64) {
	n := uint64(2 * t.dims)
	thresh := -n % n
	streams, draws = streams[:len(pos)], draws[:len(pos)]
	if t.dims == 2 {
		// The paper's sqrt(A) x sqrt(A) grid is the headline benchmark;
		// specialize it so each step costs one fastDiv, with the
		// coordinate (x for dim 0, y for dim 1) and its stride selected
		// by mask — the drawn dimension is random, so a branch on it
		// would mispredict half the time.
		side, rs := t.side, t.recipSide
		for k, v := range pos {
			x, s := streams[k].Next()
			d, lo := bits.Mul64(x, n)
			if lo < thresh {
				d, s = redraw(s, n, thresh)
			}
			streams[k], draws[k] = s, d
			delta := int64(1) - int64(d&1)<<1
			y := int64(fastDiv(uint64(v), uint64(side), rs))
			xc := v - y*side
			dimMask := -int64(d >> 1) // 0 for dim 0, -1 for dim 1
			coord := xc ^ ((xc ^ y) & dimMask)
			stride := int64(1) ^ ((int64(1) ^ side) & dimMask)
			next := coord + delta
			switch {
			case next == side:
				next = 0
			case next < 0:
				next = side - 1
			}
			pos[k] = v + (next-coord)*stride
		}
		return
	}
	for k, v := range pos {
		x, s := streams[k].Next()
		d, lo := bits.Mul64(x, n)
		if lo < thresh {
			d, s = redraw(s, n, thresh)
		}
		streams[k], draws[k] = s, d
		i := int(d)
		pos[k] = t.step(v, i>>1, 1-int64(i&1)<<1)
	}
}

// RandomStepsInto advances every pos[k] by one uniformly random step
// in one draw-and-step pass; see (*Torus).RandomStepsInto.
func (h *Hypercube) RandomStepsInto(pos []int64, streams []rng.Stream, draws []uint64) {
	n := uint64(h.bits)
	thresh := -n % n
	streams, draws = streams[:len(pos)], draws[:len(pos)]
	for k, v := range pos {
		x, s := streams[k].Next()
		d, lo := bits.Mul64(x, n)
		if lo < thresh {
			d, s = redraw(s, n, thresh)
		}
		streams[k], draws[k] = s, d
		pos[k] = v ^ 1<<uint(d)
	}
}

// RandomStepsInto advances every pos[k] by one uniformly random step
// in one draw-and-step pass; see (*Torus).RandomStepsInto.
func (c *Complete) RandomStepsInto(pos []int64, streams []rng.Stream, draws []uint64) {
	n := uint64(c.nodes - 1)
	thresh := -n % n
	streams, draws = streams[:len(pos)], draws[:len(pos)]
	for k, v := range pos {
		x, s := streams[k].Next()
		d, lo := bits.Mul64(x, n)
		if lo < thresh {
			d, s = redraw(s, n, thresh)
		}
		streams[k], draws[k] = s, d
		j := int64(d)
		if j >= v {
			j++
		}
		pos[k] = j
	}
}

// RandomStepsInto is RandomSteps with a fixed draw bound, possible for
// the CSR graph only when it is regular (one bound holds for every
// node), in one draw-and-step pass like (*Torus).RandomStepsInto; it
// reports false without touching anything otherwise, and callers fall
// back to RandomSteps. Regular graphs with isolated nodes do not exist
// (degree 0 everywhere means no edges, degree > 0 somewhere breaks
// regularity), so the isolated-node no-draw rule of RandomStep cannot
// diverge here.
func (g *Adj) RandomStepsInto(pos []int64, streams []rng.Stream, draws []uint64) bool {
	if g.regular <= 0 {
		return false
	}
	n := uint64(g.regular)
	thresh := -n % n
	streams, draws = streams[:len(pos)], draws[:len(pos)]
	offsets, neighbors := g.offsets, g.neighbors
	for k, v := range pos {
		x, s := streams[k].Next()
		d, lo := bits.Mul64(x, n)
		if lo < thresh {
			d, s = redraw(s, n, thresh)
		}
		streams[k], draws[k] = s, d
		pos[k] = neighbors[offsets[v]+int64(d)]
	}
	return true
}

// drawBelow finishes a bounded draw in [0, n), n > 0, from x, the
// value *s has just produced (*s already advanced past it): it returns
// what (*rng.Stream).Uint64n(n) would and leaves *s as Uint64n would.
// Like Uint64n it compares the low product half with n first; only a
// half below n (probability below n/2^64) reaches the out-of-line
// fringe, which computes Lemire's threshold. It must stay within the
// inliner's budget (go1.24 prices it at exactly 80 of 80; `go build
// -gcflags=-m` reports "can inline drawBelow"), so that the CSR
// kernels, whose bound changes with every walker's node, draw with no
// call.
func drawBelow(x, n uint64, s *rng.Stream) uint64 {
	if d, lo := bits.Mul64(x, n); lo >= n {
		return d
	}
	return fringe(x, n, s)
}

// fringe finishes a draw of drawBelow whose low product half fell
// below n, as (*rng.Stream).Uint64n does: the draw stands unless the
// low half is also below thresh = 2^64 mod n, and then redraw repeats
// it from *s.
func fringe(x, n uint64, s *rng.Stream) uint64 {
	d, lo := bits.Mul64(x, n)
	if thresh := -n % n; lo < thresh {
		d, *s = redraw(*s, n, thresh)
	}
	return d
}

// redraw finishes a bounded draw in [0, n) whose first value fell in
// Lemire's rejected fringe (low product half below thresh = 2^64 mod n):
// it redraws from s until a value is accepted, exactly as
// rng.Uint64nEach's rejection loop does, and returns the draw and the
// advanced stream. A rejection has probability below n/2^64, so the
// loop stays out of the kernels' hot bodies.
func redraw(s rng.Stream, n, thresh uint64) (uint64, rng.Stream) {
	for {
		x, next := s.Next()
		s = next
		if hi, lo := bits.Mul64(x, n); lo >= thresh {
			return hi, s
		}
	}
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
