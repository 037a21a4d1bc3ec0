package core

import (
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/sim"
	"antdensity/internal/topology"
)

// BenchmarkEstimationRound measures one full estimation round — a
// synchronous world step plus every agent's count(position) reading —
// at the paper-scale 100k agents on the 512x512 torus. The pipeline
// variant is what CollisionCounts/Algorithm1 execute per round since
// the streaming refactor (bulk snapshot into a reused buffer); the
// scalar variant is the retired per-agent Count loop, kept as the
// regression baseline. Results before/after the refactor are recorded
// in BENCH_PR3.json.
func BenchmarkEstimationRound(b *testing.B) {
	newWorld := func(b *testing.B) *sim.World {
		b.Helper()
		w, err := sim.NewWorld(sim.Config{
			Graph:     topology.MustTorus(2, 512),
			NumAgents: 100_000,
			Seed:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
		w.Count(0) // build the occupancy index once, outside the loop
		return w
	}

	b.Run("pipeline", func(b *testing.B) {
		w := newWorld(b)
		buf := make([]int, w.NumAgents())
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step()
			for _, c := range w.CountsAllInto(buf) {
				sink += int64(c)
			}
		}
		_ = sink
	})

	b.Run("scalar", func(b *testing.B) {
		w := newWorld(b)
		n := w.NumAgents()
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step()
			for j := 0; j < n; j++ {
				sink += int64(w.Count(j))
			}
		}
		_ = sink
	})
}

// BenchmarkRoundBand measures one snapshot's band pass over
// density-torus's shape (50k agents, round 400, counts near 0.19*t):
// BandHalf once per agent against the round-band kernel, which
// evaluates it once per distinct count.
func BenchmarkRoundBand(b *testing.B) {
	const n, t = 50_000, 400
	s := rng.New(1)
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(s.Binomial(t, 0.19))
	}
	half := make([]float64, n)
	b.Run("per-agent", func(b *testing.B) {
		for b.Loop() {
			for i, c := range counts {
				half[i] = BandHalf(float64(c)/t, t, 0.05, 0.35)
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		band := NewRoundBand(n, 0, 0.05, 0.35)
		round := t
		ests := make([]float64, n)
		for b.Loop() {
			round++ // a fresh round each pass, as a run's snapshots are
			band.Fill(counts, round, ests, half)
		}
	})
}
