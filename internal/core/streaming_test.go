package core

import (
	"math"
	"testing"

	"antdensity/internal/sim"
	"antdensity/internal/topology"
)

func TestNewStreamingEstimatorValidation(t *testing.T) {
	if _, err := NewStreamingEstimator(0); err == nil {
		t.Error("c1=0 accepted")
	}
	if _, err := NewStreamingEstimator(-1); err == nil {
		t.Error("negative c1 accepted")
	}
}

func TestStreamingEstimateMatchesBatch(t *testing.T) {
	// Feeding the same counts must reproduce Algorithm 1's estimate.
	g := topology.MustTorus(2, 12)
	w1 := sim.MustWorld(sim.Config{Graph: g, NumAgents: 20, Seed: 3})
	w2 := sim.MustWorld(sim.Config{Graph: g, NumAgents: 20, Seed: 3})
	const rounds = 300
	est, err := NewStreamingEstimator(0.35)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		w1.Step()
		est.Observe(w1.Count(0))
	}
	batch, err := Algorithm1(w2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Estimate()-batch[0]) > 1e-12 {
		t.Errorf("streaming %v != batch %v", est.Estimate(), batch[0])
	}
	if est.Rounds() != rounds {
		t.Errorf("Rounds = %d, want %d", est.Rounds(), rounds)
	}
}

func TestStreamingIntervalShrinks(t *testing.T) {
	g := topology.MustTorus(2, 16)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 40, Seed: 5})
	est, err := NewStreamingEstimator(0.35)
	if err != nil {
		t.Fatal(err)
	}
	var half500, half4000 float64
	for r := 1; r <= 4000; r++ {
		w.Step()
		est.Observe(w.Count(0))
		if r == 500 {
			_, half500 = est.Interval(0.05)
		}
	}
	_, half4000 = est.Interval(0.05)
	if math.IsInf(half500, 1) || math.IsInf(half4000, 1) {
		t.Fatal("interval never became finite (no collisions?)")
	}
	if half4000 >= half500 {
		t.Errorf("interval did not shrink: %v -> %v", half500, half4000)
	}
}

func TestStreamingIntervalCoverage(t *testing.T) {
	// The 1-delta band should contain the true density for most
	// agents once the band is meaningful.
	g := topology.MustTorus(2, 16)
	const agents, rounds = 40, 3000
	// Use a conservative constant: c1 = 0.35 is the tight empirical
	// calibration of E02; per-agent coverage at 1-delta needs the
	// looser c1 = 0.6.
	covered, total := 0, 0
	for trial := 0; trial < 3; trial++ {
		w := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: uint64(40 + trial)})
		ests := make([]*StreamingEstimator, agents)
		for i := range ests {
			e, err := NewStreamingEstimator(0.6)
			if err != nil {
				t.Fatal(err)
			}
			ests[i] = e
		}
		for r := 0; r < rounds; r++ {
			w.Step()
			for i := range ests {
				ests[i].Observe(w.Count(i))
			}
		}
		d := w.Density()
		for i := range ests {
			mid, half := ests[i].Interval(0.05)
			if math.IsInf(half, 1) {
				continue
			}
			total++
			if d >= mid-half && d <= mid+half {
				covered++
			}
		}
	}
	if total == 0 {
		t.Fatal("no finite intervals")
	}
	coverage := float64(covered) / float64(total)
	if coverage < 0.9 {
		t.Errorf("interval coverage = %v, want >= 0.9", coverage)
	}
}

func TestStreamingAboveThreshold(t *testing.T) {
	g := topology.MustTorus(2, 16) // A = 256
	decide := func(agents int) int {
		w := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: 9})
		est, err := NewStreamingEstimator(0.35)
		if err != nil {
			t.Fatal(err)
		}
		const threshold = 0.1
		for r := 0; r < 20000; r++ {
			w.Step()
			est.Observe(w.Count(0))
			if v := est.AboveThreshold(threshold, 0.05); v != 0 {
				return v
			}
		}
		return 0
	}
	if got := decide(103); got != +1 { // d ~ 0.4
		t.Errorf("high-density decision = %d, want +1", got)
	}
	if got := decide(6); got != -1 { // d ~ 0.02
		t.Errorf("low-density decision = %d, want -1", got)
	}
}

func TestStreamingAboveThresholdZeroCollisions(t *testing.T) {
	// A lone agent never collides; the estimator must eventually
	// decide "below threshold" from the absence of collisions.
	g := topology.MustTorus(2, 64)
	w := sim.MustWorld(sim.Config{Graph: g, NumAgents: 1, Seed: 2})
	est, err := NewStreamingEstimator(0.35)
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	for r := 0; r < 2000; r++ {
		w.Step()
		est.Observe(w.Count(0))
		if v := est.AboveThreshold(0.1, 0.05); v != 0 {
			decided = v
			break
		}
	}
	if decided != -1 {
		t.Errorf("zero-collision decision = %d, want -1", decided)
	}
}

func TestStreamingIntervalWithEstimateAboveOne(t *testing.T) {
	// Dense worlds can push the running encounter rate above 1 in
	// early rounds; Interval must clamp the plug-in density rather
	// than panic.
	est, err := NewStreamingEstimator(0.35)
	if err != nil {
		t.Fatal(err)
	}
	est.Observe(3) // estimate = 3.0
	mid, half := est.Interval(0.05)
	if mid != 3 {
		t.Errorf("estimate = %v, want 3", mid)
	}
	if math.IsNaN(half) || half <= 0 {
		t.Errorf("half-width = %v, want positive finite", half)
	}
	if est.AboveThreshold(0.1, 0.05) == -1 {
		t.Error("huge estimate decided 'below threshold'")
	}
}

func TestStreamingReset(t *testing.T) {
	est, err := NewStreamingEstimator(1)
	if err != nil {
		t.Fatal(err)
	}
	est.Observe(5)
	est.Reset()
	if est.Rounds() != 0 || est.Estimate() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestStreamingPanics(t *testing.T) {
	est, err := NewStreamingEstimator(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"negative count", func() { est.Observe(-1) }},
		{"bad delta", func() { est.Interval(0) }},
		{"bad threshold", func() { est.AboveThreshold(0, 0.05) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}

// TestRoundBandIsBandHalf pins the round-band kernel to BandHalf bit
// for bit: every (estimate, half) pair Fill publishes and every
// (half, verdict) At returns equals c/t, BandHalf and BandVerdict
// evaluated directly — on the memo's first and second pass over a
// round, after rounds move, for count 0 (+Inf), for counts whose
// estimate exceeds 1 (the clamp), for repeated counts, and for counts
// at and beyond the memo's bound of one entry per agent.
func TestRoundBandIsBandHalf(t *testing.T) {
	const n, threshold = 8, 0.3
	counts := func(t int64) []int64 {
		return []int64{0, 1, 1, 3, 0, n - 1, n, n, n + 1, 2*t + 1, t, t + 1, 5 * t, 3}
	}
	for _, p := range []struct{ delta, c1 float64 }{{0.05, 0.35}, {0.05, 0.6}} {
		band := NewRoundBand(n, threshold, p.delta, p.c1)
		for _, round := range []int{1, 2, 400, 100_000, 2, 1} {
			cs := counts(int64(round))
			ests := make([]float64, len(cs))
			half := make([]float64, len(cs))
			for pass := 0; pass < 2; pass++ {
				sum := band.Fill(cs, round, ests, half)
				var wantSum float64
				for i, c := range cs {
					est := float64(c) / float64(round)
					wantHalf := BandHalf(est, round, p.delta, p.c1)
					wantSum += est
					if math.Float64bits(ests[i]) != math.Float64bits(est) || math.Float64bits(half[i]) != math.Float64bits(wantHalf) {
						t.Errorf("delta %v c1 %v round %d pass %d count %d: Fill = (%v, %v), want (%v, %v)",
							p.delta, p.c1, round, pass, c, ests[i], half[i], est, wantHalf)
					}
					h, v := band.At(c, round)
					if wantV := BandVerdict(est, wantHalf, round, threshold, p.delta); math.Float64bits(h) != math.Float64bits(wantHalf) || v != wantV {
						t.Errorf("delta %v c1 %v round %d count %d: At = (%v, %d), want (%v, %d)",
							p.delta, p.c1, round, c, h, v, wantHalf, wantV)
					}
				}
				if math.Float64bits(sum) != math.Float64bits(wantSum) {
					t.Errorf("round %d: Fill sum = %v, want the agent-order sum %v", round, sum, wantSum)
				}
			}
			if !math.IsInf(half[0], 1) {
				t.Errorf("round %d: count 0 half = %v, want +Inf", round, half[0])
			}
			if len(band.memo) > n {
				t.Fatalf("memo holds %d entries, want at most one per agent (%d)", len(band.memo), n)
			}
			// One memo entry per distinct count inside the bound.
			distinct := map[int64]bool{}
			for _, c := range cs {
				if c < n {
					distinct[c] = true
				}
			}
			fresh := 0
			for _, e := range band.memo {
				if e.round == round {
					fresh++
				}
			}
			if fresh != len(distinct) {
				t.Errorf("round %d: %d memo entries evaluated, want %d distinct in-bound counts", round, fresh, len(distinct))
			}
		}
	}
	// Without a threshold the kernel applies no stop rule.
	if _, v := NewRoundBand(n, 0, 0.05, 0.35).At(0, 100_000); v != 0 {
		t.Errorf("verdict without a threshold = %d, want 0", v)
	}
}

func TestRoundBandPanics(t *testing.T) {
	band := NewRoundBand(4, 0, 0.05, 0.35)
	band.At(3, 5) // grow the memo so round 0 could match an empty entry
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"round 0", func() { band.At(1, 0) }},
		{"negative count", func() { band.At(-1, 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}
