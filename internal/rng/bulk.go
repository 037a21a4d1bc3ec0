package rng

import "math/bits"

// Bulk-fill draws.
//
// The hot loop of a density-estimation round makes one bounded draw
// per agent per round from that agent's private substream. Making the
// draws one virtual call at a time leaves two costs on the table: the
// stream state round-trips through memory on every draw, and the
// rejection threshold of Lemire's method is recomputed per draw. The
// bulk APIs below amortize both while preserving the determinism
// contract bit-for-bit:
//
//   - Stream.Uint64nBulk / Stream.FloatBulk fill a caller-owned buffer
//     with exactly the values len(buf) successive scalar calls on the
//     same stream would produce, consuming the identical number of
//     underlying Uint64 draws (rejections included).
//   - Uint64nEach / FloatEach make exactly one bounded draw from each
//     stream of a []Stream — the simulator's substream-per-agent
//     layout — advancing every stream exactly as its own scalar call
//     would. The world's random-walk step does not call Uint64nEach:
//     internal/topology's RandomStepsInto makes the same draw inline
//     and steps in the same pass, so the stream and the position stay
//     in registers. Uint64nEach is the reference that inline draw
//     follows, and the bulk fill perfbench's replay times; the Lazy
//     and Biased kernels call FloatEach.
//
// Because draw order within each stream is unchanged and streams are
// independent, any mix of bulk and scalar consumption yields
// bit-identical simulations.

// Uint64nBulk fills buf with uniformly random integers in [0, n),
// exactly as len(buf) successive Uint64n(n) calls would. It panics if
// n == 0.
//
//antlint:noalloc
func (s *Stream) Uint64nBulk(n uint64, buf []uint64) {
	if n == 0 {
		panic("rng: Uint64nBulk called with zero n")
	}
	thresh := -n % n
	local := *s
	for i := range buf {
		x, next := local.Next()
		local = next
		hi, lo := bits.Mul64(x, n)
		for lo < thresh {
			x, local = local.Next()
			hi, lo = bits.Mul64(x, n)
		}
		buf[i] = hi
	}
	*s = local
}

// FloatBulk fills buf with uniformly random float64s in [0, 1),
// exactly as len(buf) successive Float64 calls would.
//
//antlint:noalloc
func (s *Stream) FloatBulk(buf []float64) {
	local := *s
	for i := range buf {
		x, next := local.Next()
		local = next
		buf[i] = float64(x>>11) / (1 << 53)
	}
	*s = local
}

// Uint64nEach makes one Uint64n(n) draw from each stream:
// out[i] = streams[i].Uint64n(n), with streams[i] advanced exactly as
// that scalar call would advance it (rejection redraws included). It
// panics if n == 0; out must have at least len(streams) elements.
//
//antlint:noalloc
func Uint64nEach(streams []Stream, n uint64, out []uint64) {
	if n == 0 {
		panic("rng: Uint64nEach called with zero n")
	}
	_ = out[:len(streams)]
	thresh := -n % n
	for k := range streams {
		x, s := streams[k].Next()
		hi, lo := bits.Mul64(x, n)
		for lo < thresh {
			x, s = s.Next()
			hi, lo = bits.Mul64(x, n)
		}
		streams[k] = s
		out[k] = hi
	}
}

// FloatEach makes one Float64 draw from each stream:
// out[i] = streams[i].Float64(), with streams[i] advanced exactly as
// that scalar call would advance it. out must have at least
// len(streams) elements.
//
//antlint:noalloc
func FloatEach(streams []Stream, out []float64) {
	_ = out[:len(streams)]
	for k := range streams {
		x, s := streams[k].Next()
		streams[k] = s
		out[k] = float64(x>>11) / (1 << 53)
	}
}
