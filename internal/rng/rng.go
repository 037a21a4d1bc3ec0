// Package rng provides deterministic, splittable pseudo-random number
// streams for reproducible simulations.
//
// All simulations in this repository draw randomness from explicit
// Stream values rather than global state, so any experiment is
// reproducible bit-for-bit from its seed. The generator is
// xoshiro256** seeded through splitmix64, following the reference
// construction by Blackman and Vigna. Both are small, fast, and have
// no external dependencies.
//
// Streams are cheaply splittable: Split derives an independent child
// stream from a parent stream and an integer label, which lets a
// simulation hand every agent its own private stream without
// coordination.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random number generator
// (xoshiro256**). The zero value is not usable; construct streams with
// New or Split.
//
// Stream is not safe for concurrent use. Concurrent simulations should
// Split one stream per goroutine.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the given state and returns the next output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from the given seed. Distinct seeds give
// streams that are, for simulation purposes, independent.
func New(seed uint64) *Stream {
	st := seed
	var s Stream
	s.s0 = splitmix64(&st)
	s.s1 = splitmix64(&st)
	s.s2 = splitmix64(&st)
	s.s3 = splitmix64(&st)
	return &s
}

// Split derives an independent child stream labeled by id. Children
// with distinct ids, or derived from streams with distinct seeds, are
// independent for simulation purposes. Split does not advance the
// parent stream, so the same (parent state, id) pair always yields the
// same child.
func (s *Stream) Split(id uint64) *Stream {
	c := s.SplitValue(id)
	return &c
}

// SplitValue is Split returning the child by value, so callers can
// store many streams contiguously (e.g. one []Stream element per
// simulated agent) without a heap allocation and pointer chase per
// stream. The child state is identical to Split's for the same
// (parent state, id) pair.
func (s *Stream) SplitValue(id uint64) Stream {
	// Mix the parent state with the label through splitmix64 so that
	// nearby ids land far apart in state space.
	st := s.s0 ^ rotl(s.s2, 17) ^ (id * 0x9e3779b97f4a7c15)
	var c Stream
	c.s0 = splitmix64(&st)
	c.s1 = splitmix64(&st)
	c.s2 = splitmix64(&st)
	c.s3 = splitmix64(&st)
	return c
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Next is the value-receiver twin of Uint64: it returns the next 64
// random bits together with the advanced stream, leaving the receiver
// unchanged. Hot loops can keep a Stream in a local (often in
// registers) and write it back once, instead of mutating through a
// pointer on every draw. The output sequence is identical to Uint64's.
func (s Stream) Next() (uint64, Stream) {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result, s
}

// Intn returns a uniformly random integer in [0, n). It panics if
// n <= 0. The implementation uses Lemire's nearly-divisionless bounded
// rejection method, so results are exactly uniform.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly random integer in [0, n). It panics if
// n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	// Lemire's method: multiply-shift with rejection of the biased
	// low fringe.
	x := s.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Float64 returns a uniformly random float64 in [0, 1) with 53 bits of
// precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. Values of p outside
// [0, 1] are clamped.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Binomial returns a sample from the Binomial(n, p) distribution: the
// number of successes in n independent trials of probability p. It
// panics if n < 0; p outside [0, 1] is clamped, matching Bernoulli.
//
// The sampler uses CDF inversion with the ratio recurrence
// P[X=k+1] = P[X=k] * (n-k)/(k+1) * p/(1-p), consuming a single
// uniform draw per chunk instead of one Bernoulli draw per trial —
// the hot-path replacement for summing n Bernoulli(p) coins. Large n
// is split into chunks small enough that (1-p)^chunk stays far from
// the subnormal range, keeping the recurrence exact-in-distribution
// for every n.
func (s *Stream) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial called with negative n")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Bound the chunk so chunk*ln(1-p) > -700: (1-p)^chunk then stays
	// above ~1e-304 and the CDF walk never degenerates.
	maxChunk := int(-700 / math.Log1p(-p))
	if maxChunk < 1 {
		maxChunk = 1
	}
	k := 0
	for n > 0 {
		c := n
		if c > maxChunk {
			c = maxChunk
		}
		k += s.binomialInversion(c, p)
		n -= c
	}
	return k
}

// binomialInversion draws Binomial(n, p) by walking the CDF from
// P[X=0] = (1-p)^n with one uniform; n must be small enough that the
// starting mass does not underflow (see Binomial's chunking).
func (s *Stream) binomialInversion(n int, p float64) int {
	q := 1 - p
	pk := math.Pow(q, float64(n))
	cum := pk
	r := p / q
	u := s.Float64()
	k := 0
	for u >= cum && k < n {
		k++
		pk *= float64(n-k+1) / float64(k) * r
		cum += pk
	}
	return k
}

// NormFloat64 returns a standard normally distributed float64, using
// the polar (Marsaglia) method.
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// Perm returns a uniformly random permutation of [0, n) as a slice,
// generated by the Fisher-Yates shuffle.
func (s *Stream) Perm(n int) []int {
	return s.PermInto(make([]int, n))
}

// PermInto fills p with a uniformly random permutation of
// [0, len(p)) and returns it — Perm writing into a caller-owned
// buffer, so periodic reshuffles (adversary selection, load
// randomization) allocate nothing. The draw sequence and resulting
// permutation are identical to Perm(len(p))'s for the same stream
// state. The swap loop is Shuffle's, inlined so the swap callback
// cannot force p to escape.
//
//antlint:noalloc
func (s *Stream) PermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided
// swap function. It panics if n < 0.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle called with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
