//go:build !race

package antdensity_test

import (
	"context"
	"runtime"
	"testing"

	"antdensity"
)

// TestUnreadPublicationAllocs pins that a density run nobody reads
// allocates no O(agents) buffer per publication after its first two:
// each publication copies the collision counts into the capture of the
// publication before last, which no reader pinned. Measured as the
// TotalAlloc delta per publication between a 10- and a 60-round run of
// the same Spec, which differ only in publications (race off: the race
// runtime allocates).
func TestUnreadPublicationAllocs(t *testing.T) {
	const agents = 50_000
	alloc := func(rounds int) uint64 {
		r, err := antdensity.DensitySpec(antdensity.WithTorus2D(512), antdensity.WithAgents(agents),
			antdensity.WithSeed(1), antdensity.WithRounds(rounds)).NewRun()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := r.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(10), alloc(60)
	perPublication := (float64(long) - float64(short)) / 50
	// One O(agents) buffer is 8 bytes per agent.
	if perPublication > agents/8 {
		t.Errorf("an unread publication allocates %.0f bytes, want no O(agents) buffer (< %d)", perPublication, agents/8)
	}
	t.Logf("%.0f bytes per unread publication", perPublication)
}
