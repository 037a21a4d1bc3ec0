package core

import (
	"math"
	"testing"

	"antdensity/internal/sim"
	"antdensity/internal/stats"
	"antdensity/internal/topology"
)

// meanEstimate runs Algorithm 1 across several independently seeded
// worlds and returns the grand mean of all agents' estimates together
// with the true density.
func meanEstimate(t *testing.T, agents int, side int64, rounds, trials int, opts ...Option) (got, want float64) {
	t.Helper()
	g := topology.MustTorus(2, side)
	var all []float64
	for trial := 0; trial < trials; trial++ {
		w := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: uint64(1000 + trial)})
		ests, err := Algorithm1(w, rounds, opts...)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ests...)
		want = w.Density()
	}
	return stats.Mean(all), want
}

func TestAlgorithm1Unbiased(t *testing.T) {
	// Corollary 3: E[d-tilde] = d. Grand mean over 41 agents x 5
	// trials at d = 0.1 should land within ~25% of d.
	got, want := meanEstimate(t, 41, 20, 2000, 5)
	if math.Abs(got-want) > 0.25*want {
		t.Errorf("grand mean estimate = %v, want ~%v", got, want)
	}
}

func TestAlgorithm1ErrorShrinksWithT(t *testing.T) {
	// Theorem 1: accuracy improves as t grows. Compare mean absolute
	// relative error at t=100 vs t=3200.
	g := topology.MustTorus(2, 16) // A = 256
	const agents = 33              // d = 0.125
	relErr := func(rounds int) float64 {
		var errs []float64
		for trial := 0; trial < 6; trial++ {
			w := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: uint64(50 + trial)})
			ests, err := Algorithm1(w, rounds)
			if err != nil {
				t.Fatal(err)
			}
			errs = append(errs, stats.RelErrors(ests, w.Density())...)
		}
		return stats.Mean(errs)
	}
	small, large := relErr(100), relErr(3200)
	if large >= small {
		t.Errorf("mean relative error did not shrink: t=100 -> %v, t=3200 -> %v", small, large)
	}
}

func TestAlgorithm1RejectsBadRounds(t *testing.T) {
	g := topology.MustTorus(2, 10)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 2, Seed: 1})
	if _, err := Algorithm1(w, 0); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := Algorithm1(w, -3); err == nil {
		t.Error("negative t accepted")
	}
}

func TestCollisionCountsMatchEstimates(t *testing.T) {
	g := topology.MustTorus(2, 8)
	const rounds = 50
	w1 := sim.MustWorld(sim.Config{Graph: g, NumAgents: 10, Seed: 4})
	w2 := sim.MustWorld(sim.Config{Graph: g, NumAgents: 10, Seed: 4})
	counts, err := CollisionCounts(w1, rounds)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := Algorithm1(w2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got, want := ests[i], float64(counts[i])/rounds; math.Abs(got-want) > 1e-12 {
			t.Fatalf("agent %d: estimate %v != count/t %v", i, got, want)
		}
	}
}

func TestWithNoiseDetectionThinning(t *testing.T) {
	// With detection probability 1/2 and no spurious detections, the
	// mean estimate should be about d/2.
	got, want := meanEstimate(t, 41, 20, 2000, 5, WithNoise(0.5, 0, 99))
	if math.Abs(got-want/2) > 0.3*want/2 {
		t.Errorf("thinned mean estimate = %v, want ~%v", got, want/2)
	}
}

func TestWithNoiseSpuriousFloor(t *testing.T) {
	// With no real agents to collide with (single agent) and spurious
	// probability q, the estimate converges to q.
	g := topology.MustTorus(2, 50)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 1, Seed: 5})
	ests, err := Algorithm1(w, 20000, WithNoise(1, 0.25, 7))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ests[0]-0.25) > 0.02 {
		t.Errorf("spurious-only estimate = %v, want ~0.25", ests[0])
	}
}

func TestWithNoiseValidation(t *testing.T) {
	g := topology.MustTorus(2, 10)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 2, Seed: 1})
	if _, err := Algorithm1(w, 10, WithNoise(1.5, 0, 1)); err == nil {
		t.Error("detectProb > 1 accepted")
	}
	if _, err := Algorithm1(w, 10, WithNoise(1, -0.1, 1)); err == nil {
		t.Error("negative spuriousProb accepted")
	}
}

// TestWithNoiseRejectsNonFinite pins the NaN fix: NaN compares false
// against every bound, so `p < 0 || p > 1` quietly accepted NaN
// probabilities and poisoned every downstream Bernoulli draw.
func TestWithNoiseRejectsNonFinite(t *testing.T) {
	g := topology.MustTorus(2, 10)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 2, Seed: 1})
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name             string
		detect, spurious float64
	}{
		{"nan detect", nan, 0},
		{"nan spurious", 1, nan},
		{"both nan", nan, nan},
		{"+inf detect", inf, 0},
		{"-inf detect", -inf, 0},
		{"+inf spurious", 1, inf},
		{"-inf spurious", 1, -inf},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Algorithm1(w, 10, WithNoise(tc.detect, tc.spurious, 1)); err == nil {
				t.Errorf("WithNoise(%v, %v) accepted", tc.detect, tc.spurious)
			}
		})
	}
	// The boundary values stay valid.
	for _, pq := range [][2]float64{{0, 0}, {1, 1}, {1, 0}, {0, 1}} {
		if _, err := Algorithm1(w, 10, WithNoise(pq[0], pq[1], 1)); err != nil {
			t.Errorf("WithNoise(%v, %v) rejected: %v", pq[0], pq[1], err)
		}
	}
}

// TestReportFilterOrdering pins the filter contract the adversary
// layer relies on: the filter sees noise-perturbed counts, and in a
// property run the total filter runs before the tagged filter each
// round.
func TestReportFilterOrdering(t *testing.T) {
	g := topology.MustTorus(2, 10)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 5, Seed: 1})
	w.SetTagged(0, true)
	var calls []string
	total := func(round int, counts []int) []int {
		calls = append(calls, "total")
		return counts
	}
	tagged := func(round int, counts []int) []int {
		calls = append(calls, "tagged")
		return counts
	}
	obs, err := NewPropertyObserver(5, WithReportFilter(total), WithTaggedReportFilter(tagged))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(w, 3, obs)
	want := []string{"total", "tagged", "total", "tagged", "total", "tagged"}
	if len(calls) != len(want) {
		t.Fatalf("filter calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("filter calls = %v, want %v", calls, want)
		}
	}
	if _, err := NewCollisionObserver(3, WithReportFilter(nil)); err == nil {
		t.Error("nil report filter accepted")
	}
	if _, err := NewPropertyObserver(3, WithTaggedReportFilter(nil)); err == nil {
		t.Error("nil tagged report filter accepted")
	}
}

func TestWithTaggedOnlyCountsOnlyTagged(t *testing.T) {
	// Tag half the population; the tagged-only estimate should be
	// about half the full estimate.
	g := topology.MustTorus(2, 16)
	const agents = 40
	var full, tagged []float64
	for trial := 0; trial < 6; trial++ {
		seed := uint64(300 + trial)
		wf := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: seed})
		wt := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: seed})
		for i := 0; i < agents/2; i++ {
			wf.SetTagged(i, true)
			wt.SetTagged(i, true)
		}
		ef, err := Algorithm1(wf, 1500)
		if err != nil {
			t.Fatal(err)
		}
		et, err := Algorithm1(wt, 1500, WithTaggedOnly())
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, ef...)
		tagged = append(tagged, et...)
	}
	ratio := stats.Mean(tagged) / stats.Mean(full)
	// 20 tagged of 40; an untagged observer sees 20/39 of others
	// tagged, a tagged one 19/39. Expect a ratio near 0.5.
	if math.Abs(ratio-0.5) > 0.12 {
		t.Errorf("tagged/full estimate ratio = %v, want ~0.5", ratio)
	}
}

func TestPropertyFrequencyRecoversFraction(t *testing.T) {
	// Section 5.2: f-tilde = d-tilde_P / d-tilde approximates f_P.
	g := topology.MustTorus(2, 16)
	const agents, taggedCount = 40, 10 // f_P ~ 0.25
	var freqs []float64
	for trial := 0; trial < 6; trial++ {
		w := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: uint64(600 + trial)})
		for i := 0; i < taggedCount; i++ {
			w.SetTagged(i, true)
		}
		res, err := PropertyFrequency(w, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range res.Frequency {
			if math.IsNaN(f) {
				continue // agent saw no collisions at all
			}
			_ = i
			freqs = append(freqs, f)
		}
	}
	got := stats.Mean(freqs)
	if math.Abs(got-0.25) > 0.08 {
		t.Errorf("mean frequency estimate = %v, want ~0.25", got)
	}
}

func TestPropertyFrequencyComponentsConsistent(t *testing.T) {
	g := topology.MustTorus(2, 10)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 20, Seed: 8})
	for i := 0; i < 5; i++ {
		w.SetTagged(i, true)
	}
	obs, err := NewPropertyObserver(w.NumAgents())
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(w, 200, obs)
	res := obs.Result()
	// A property snapshot publishes Frequencies: Result's Frequency, bit
	// for bit (NaN where an agent saw no collision).
	for i, f := range obs.Frequencies() {
		if math.Float64bits(f) != math.Float64bits(res.Frequency[i]) {
			t.Fatalf("agent %d: Frequencies %v != Result %v", i, f, res.Frequency[i])
		}
	}
	for i := range res.Density {
		if res.PropertyDensity[i] > res.Density[i]+1e-12 {
			t.Fatalf("agent %d: property density %v exceeds density %v", i, res.PropertyDensity[i], res.Density[i])
		}
		if !math.IsNaN(res.Frequency[i]) {
			want := res.PropertyDensity[i] / res.Density[i]
			if math.Abs(res.Frequency[i]-want) > 1e-12 {
				t.Fatalf("agent %d: frequency %v != ratio %v", i, res.Frequency[i], want)
			}
		}
	}
}

func TestPropertyFrequencyRejectsBadRounds(t *testing.T) {
	g := topology.MustTorus(2, 10)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 2, Seed: 1})
	if _, err := PropertyFrequency(w, 0); err == nil {
		t.Error("t=0 accepted")
	}
}

func TestAlgorithm4Unbiased(t *testing.T) {
	// Theorem 32 setting: t < sqrt(A). Use a large torus so walkers
	// do not lap the grid.
	g := topology.MustTorus(2, 200) // A = 40000, sqrt(A) = 200
	const agents = 2001             // d = 0.05
	var all []float64
	var want float64
	for trial := 0; trial < 4; trial++ {
		w := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: uint64(70 + trial)})
		ests, err := Algorithm4(w, 150, uint64(170+trial))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ests...)
		want = w.Density()
	}
	got := stats.Mean(all)
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("Algorithm 4 grand mean = %v, want ~%v", got, want)
	}
}

func TestAlgorithm4ModTCancelsLockstepCollisions(t *testing.T) {
	// All agents start on the same square. Lock-stepped walkers
	// collide with each other every round and stationary agents
	// likewise; the mod-t correction must cancel these spurious
	// counts exactly, leaving estimate 0 (no cross-group collisions
	// occur in t < side rounds of +x drift).
	g := topology.MustTorus(2, 11)
	w := sim.MustWorld(sim.Config{
		Graph: g, NumAgents: 6, Seed: 2,
		Placement: sim.FixedPlacement(0),
	})
	ests, err := Algorithm4(w, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ests {
		if e != 0 {
			t.Errorf("agent %d: estimate %v, want 0 after mod-t correction", i, e)
		}
	}
}

func TestAlgorithm4RejectsBadRounds(t *testing.T) {
	g := topology.MustTorus(2, 10)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 2, Seed: 1})
	if _, err := Algorithm4(w, 0, 1); err == nil {
		t.Error("t=0 accepted")
	}
}
