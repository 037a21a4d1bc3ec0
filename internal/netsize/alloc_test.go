//go:build !race

package netsize

import (
	"runtime"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
	"antdensity/internal/topology"
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

// TestStationaryStartAllocsPerWalker pins that a stationary start on a
// regular implicit graph allocates O(walkers) bytes: 100 walkers on
// the 201³ torus (8,120,601 nodes), where a cumulative-degree table
// alone would take 65 MB.
func TestStationaryStartAllocsPerWalker(t *testing.T) {
	g := topology.MustTorus(3, 201)
	const walkers = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewWalkersStationary(g, walkers, rng.New(1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > walkers<<10 {
		t.Errorf("a stationary start of %d walkers on %d nodes allocates %d bytes, want O(walkers) (<= 1 KiB each)", walkers, g.NumNodes(), alloc)
	}
	t.Logf("%d bytes for %d walkers", alloc, walkers)
}
