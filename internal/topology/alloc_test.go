//go:build !race

package topology

import (
	"testing"

	"antdensity/internal/rng"
)

// Allocation pin for the spectral-gap power iteration (race off: the
// race runtime allocates).

// TestSpectralGapIterationZeroAllocs pins the power iteration's steps
// at zero allocations on the CSR kernel: 300 iterations allocate
// exactly what one does (the three length-A vectors and the setup).
func TestSpectralGapIterationZeroAllocs(t *testing.T) {
	g, err := NewRandomRegular(1001, 6, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(2)
	one := testing.AllocsPerRun(20, func() { SpectralGap(g, 1, s) })
	many := testing.AllocsPerRun(20, func() { SpectralGap(g, 300, s) })
	if many != one {
		t.Errorf("SpectralGap allocates %.1f times at 300 iterations and %.1f at 1, want equal", many, one)
	}
}
