//go:build !race

package topology_test

import (
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// Allocation pins for the spectral-gap power iteration and the CSR
// walk kernel (race off: the race runtime allocates).

// TestSpectralGapIterationZeroAllocs pins the power iteration's steps
// at zero allocations on the CSR kernel: 300 iterations allocate
// exactly what one does (the three length-A vectors and the setup).
func TestSpectralGapIterationZeroAllocs(t *testing.T) {
	g, err := topology.NewRandomRegular(1001, 6, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(2)
	one := testing.AllocsPerRun(20, func() { topology.SpectralGap(g, 1, s) })
	many := testing.AllocsPerRun(20, func() { topology.SpectralGap(g, 300, s) })
	if many != one {
		t.Errorf("SpectralGap allocates %.1f times at 300 iterations and %.1f at 1, want equal", many, one)
	}
}

// TestAdjRandomStepsZeroAllocs pins a warm round of the irregular CSR
// walk kernel, netsize's step, at zero allocations on BA(2000, 4).
func TestAdjRandomStepsZeroAllocs(t *testing.T) {
	g := mustBA(t, 2000, 1)
	root := rng.New(3)
	pos := make([]int64, 400)
	streams := make([]rng.Stream, len(pos))
	for i := range pos {
		pos[i] = int64(i)
		streams[i] = root.SplitValue(uint64(i))
	}
	g.RandomSteps(pos, streams)
	if avg := testing.AllocsPerRun(100, func() { g.RandomSteps(pos, streams) }); avg != 0 {
		t.Errorf("a RandomSteps round allocates %.1f times, want 0", avg)
	}
}
