package netsize

import (
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// BenchmarkNetsizeRound measures one Algorithm 2 collision-counting
// round (step all walkers, accumulate degree-weighted collisions) at
// 100k walkers on the 512x512 torus. The pipeline variant is what
// EstimateSize executes since the sim.World rebuild: batched step
// kernels and the incrementally maintained occupancy
// index for the counts. The legacy variant reproduces the retired
// implementation — per-walker topology.RandomStep through heap
// streams, plus a freshly built hash-map occupancy per round.
func BenchmarkNetsizeRound(b *testing.B) {
	g := topology.MustTorus(2, 512)
	const walkers = 100_000

	b.Run("pipeline", func(b *testing.B) {
		w, err := NewWalkersAtSeed(g, walkers, 0, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		w.weightedCollisions() // build the occupancy index once
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step()
			sink += w.weightedCollisions()
		}
		_ = sink
	})

	b.Run("legacy", func(b *testing.B) {
		s := rng.New(1)
		pos := make([]int64, walkers)
		streams := make([]*rng.Stream, walkers)
		for i := range pos {
			streams[i] = s.Split(uint64(i))
		}
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range pos {
				pos[j] = topology.RandomStep(g, pos[j], streams[j])
			}
			occ := make(map[int64]int64, len(pos))
			for _, p := range pos {
				occ[p]++
			}
			for _, p := range pos {
				if c := occ[p]; c > 1 {
					sink += float64(c-1) / float64(g.Degree(p))
				}
			}
		}
		_ = sink
	})
}
