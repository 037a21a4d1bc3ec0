package walk

import (
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// opaque hides a graph's concrete type, forcing topology.Stepper's
// generic fallback — the scalar reference path the batched walker must
// match bit for bit.
type opaque struct{ topology.Graph }

// TestBatchedWalksMatchScalar runs every Monte Carlo estimator twice
// on the same graph — once with the concrete type (batched
// StepperBulk path) and once type-hidden (scalar RandomStep path) —
// and requires identical output, including step counts that are not
// multiples of the chunk size.
func TestBatchedWalksMatchScalar(t *testing.T) {
	graphs := map[string]topology.Graph{
		"torus2d":   topology.MustTorus(2, 16),
		"ring":      topology.MustTorus(1, 64),
		"hypercube": topology.MustHypercube(7),
		"complete":  topology.MustComplete(50),
	}
	const (
		steps  = walkChunk + 131 // spans a full chunk plus a ragged tail
		trials = 40
	)
	for name, g := range graphs {
		ref := opaque{g}
		if _, _, ok := topology.StepperBulk(g); !ok {
			t.Fatalf("%s: expected a batched stepper", name)
		}
		equalF := func(what string, a, b []float64) {
			t.Helper()
			if len(a) != len(b) {
				t.Fatalf("%s/%s: length %d != %d", name, what, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s/%s[%d]: batched %v != scalar %v", name, what, i, a[i], b[i])
				}
			}
		}
		equalF("RecollisionCurve",
			RecollisionCurve(g, 3, steps, trials, rng.New(1)),
			RecollisionCurve(ref, 3, steps, trials, rng.New(1)))
		equalF("EqualizationCurve",
			EqualizationCurve(g, 3, steps, trials, rng.New(2)),
			EqualizationCurve(ref, 3, steps, trials, rng.New(2)))
		equalF("EqualizationCounts",
			EqualizationCounts(g, steps, trials, rng.New(3)),
			EqualizationCounts(ref, steps, trials, rng.New(3)))
		equalF("PairCollisionCounts",
			PairCollisionCounts(g, steps, trials, rng.New(4)),
			PairCollisionCounts(ref, steps, trials, rng.New(4)))
	}
}
