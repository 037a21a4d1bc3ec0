//go:build !race

package netsize

import (
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
)

// Allocation pin for the counting round (race off: the race runtime
// allocates).

// TestWeightCountsZeroAllocs pins a collision-counting round on a CSR
// graph — step every walker, then fold the counts into the
// degree-weighted total — at zero allocations after warm-up.
func TestWeightCountsZeroAllocs(t *testing.T) {
	g, err := socialnet.BarabasiAlbert(2000, 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalkersAtSeed(g, 400, 0, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	w.BurnIn(10)
	w.weightedCollisions() // warm-up: the count scratch and occupancy index
	var sum float64
	if avg := testing.AllocsPerRun(100, func() {
		w.Step()
		sum += w.weightedCollisions()
	}); avg != 0 {
		t.Errorf("a counting round allocates %.1f times, want 0", avg)
	}
	if sum <= 0 {
		t.Errorf("no collisions in 100 rounds (sum %v), so the fold was not exercised", sum)
	}
}
