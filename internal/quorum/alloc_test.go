//go:build !race

package quorum

import (
	"testing"

	"antdensity/internal/sim"
	"antdensity/internal/topology"
)

// TestAnytimeDetectorObserveZeroAllocs pins the adaptive quorum's
// per-round observe at zero allocations (race off: the race runtime
// allocates). After warm-up every count has passed the round-band
// memo's bound, so the memo no longer grows; the threshold sits at the
// density, so agents stay undecided and Observe keeps running.
func TestAnytimeDetectorObserveZeroAllocs(t *testing.T) {
	const agents = 64
	w := sim.MustWorld(sim.Config{Graph: topology.MustTorus(2, 16), NumAgents: agents, Seed: 3})
	det, err := NewAnytimeDetector(agents, w.Density(), 0.05, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	rn := sim.NewRunner(w, det)
	for i := 0; i < 1000; i++ {
		rn.Step()
	}
	if avg := testing.AllocsPerRun(50, func() { rn.Step() }); avg != 0 {
		t.Errorf("AnytimeDetector.Observe allocates %.1f times per round in steady state, want 0", avg)
	}
	if rn.Stopped() || det.NumDecided() == agents {
		t.Fatalf("every agent decided (%d); the pin needs live agents", det.NumDecided())
	}
}
