//go:build !race

package core

import (
	"testing"

	"antdensity/internal/sim"
	"antdensity/internal/topology"
)

// Allocation pins for the band layer and the snapshot helpers (race
// off: the race runtime allocates).

// TestRoundBandZeroAllocs pins the round-band kernel at zero
// allocations once its memo has grown to the largest count: a fresh
// round's Fill (misses), a repeated one (hits), and At beyond the
// memo's bound.
func TestRoundBandZeroAllocs(t *testing.T) {
	const n = 1000
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(i * 7 % (n + 50)) // in and beyond the bound
	}
	ests := make([]float64, n)
	half := make([]float64, n)
	band := NewRoundBand(n, 0.1, 0.05, 0.35)
	round := 1
	band.Fill(counts, round, ests, half) // warm-up: the memo grows to n
	if avg := testing.AllocsPerRun(50, func() {
		round++
		band.Fill(counts, round, ests, half)
		band.Fill(counts, round, ests, half)
		band.At(5*n, round)
	}); avg != 0 {
		t.Errorf("RoundBand allocates %.1f times per round in steady state, want 0", avg)
	}
}

// TestPropertyFrequenciesOneAlloc pins a property snapshot's measure
// at one allocation (Result builds three slices and a struct).
func TestPropertyFrequenciesOneAlloc(t *testing.T) {
	w := sim.MustWorld(sim.Config{Graph: topology.MustTorus(2, 8), NumAgents: 30, Seed: 1})
	w.SetTagged(0, true)
	obs, err := NewPropertyObserver(w.NumAgents())
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(w, 5, obs)
	if avg := testing.AllocsPerRun(20, func() { obs.Frequencies() }); avg != 1 {
		t.Errorf("Frequencies allocates %.1f times, want 1", avg)
	}
}
