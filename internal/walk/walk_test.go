package walk

import (
	"math"
	"testing"

	"antdensity/internal/core"
	"antdensity/internal/rng"
	"antdensity/internal/stats"
	"antdensity/internal/topology"
)

func TestRecollisionCurveBasics(t *testing.T) {
	g := topology.MustTorus(2, 64)
	s := rng.New(1)
	curve := RecollisionCurve(g, 0, 16, 4000, s)
	if curve[0] != 1 {
		t.Errorf("curve[0] = %v, want 1 (walks start collided)", curve[0])
	}
	// Unlike single-walk equalization, two walks that both step each
	// round can re-collide at any m: their difference walk moves by
	// the difference of two unit steps, which has even parity. So all
	// entries may be positive.
	for m := 1; m <= 4; m++ {
		if curve[m] == 0 {
			t.Errorf("curve[%d] = 0, want positive re-collision probability", m)
		}
	}
	// Entries are positive for small m and decreasing overall.
	if curve[2] <= curve[8] {
		t.Errorf("re-collision not decaying: curve[2]=%v curve[8]=%v", curve[2], curve[8])
	}
}

func TestRecollisionCurveM2Exact(t *testing.T) {
	// After one step each, the walks collide iff they chose the same
	// neighbor: probability 1/4 on the 2-D torus. After m=2 (two
	// steps each): computable but just check the 1-step-each round is
	// the m=1... note RecollisionCurve steps both walks per m, so
	// curve[1] is after one step each. On the torus both-step
	// co-location needs same neighbor: 1/4. But parity: after one
	// step each, both are at odd parity — they CAN be co-located.
	g := topology.MustTorus(2, 64)
	s := rng.New(2)
	curve := RecollisionCurve(g, 0, 2, 40000, s)
	if math.Abs(curve[1]-0.25) > 0.01 {
		t.Errorf("curve[1] = %v, want ~0.25", curve[1])
	}
}

func TestRecollisionDecayExponent2DTorus(t *testing.T) {
	// Lemma 4: P[re-collision after m] = O(1/m). Fit a power law to
	// the even entries of the curve; expect exponent near -1.
	g := topology.MustTorus(2, 256) // large enough that 1/A is negligible
	s := rng.New(3)
	const maxM = 128
	curve := RecollisionCurve(g, 0, maxM, 60000, s)
	var xs, ys []float64
	for m := 4; m <= maxM; m += 2 {
		xs = append(xs, float64(m))
		ys = append(ys, curve[m])
	}
	alpha, _, r2 := stats.FitPowerLaw(xs, ys)
	if alpha < -1.25 || alpha > -0.75 {
		t.Errorf("2-D torus re-collision decay exponent = %v, want ~-1", alpha)
	}
	if r2 < 0.9 {
		t.Errorf("power-law fit R2 = %v, want > 0.9", r2)
	}
}

func TestRecollisionDecayExponentRing(t *testing.T) {
	// Lemma 20: on the ring the decay is 1/sqrt(m), exponent ~-1/2.
	g, err := topology.NewRing(4096)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(4)
	const maxM = 128
	curve := RecollisionCurve(g, 0, maxM, 40000, s)
	var xs, ys []float64
	for m := 4; m <= maxM; m += 2 {
		xs = append(xs, float64(m))
		ys = append(ys, curve[m])
	}
	alpha, _, _ := stats.FitPowerLaw(xs, ys)
	if alpha < -0.7 || alpha > -0.3 {
		t.Errorf("ring re-collision decay exponent = %v, want ~-0.5", alpha)
	}
}

func TestEqualizationCurveMatchesCorollary10(t *testing.T) {
	// Corollary 10: equalization probability Theta(1/(m+1)) for even
	// m, 0 for odd m. Check odd-zero and that m * P[m] is roughly
	// constant over a decade.
	g := topology.MustTorus(2, 256)
	s := rng.New(5)
	const maxM = 64
	curve := EqualizationCurve(g, g.Node(7, 9), maxM, 80000, s)
	if curve[0] != 1 {
		t.Errorf("curve[0] = %v, want 1", curve[0])
	}
	for m := 1; m <= maxM; m += 2 {
		if curve[m] != 0 {
			t.Errorf("odd equalization curve[%d] = %v, want 0", m, curve[m])
		}
	}
	// For a 2-D lattice walk, P[back at origin after m steps] ~
	// 2/(pi*m) (m even). Check the constant at two scales.
	for _, m := range []int{16, 64} {
		got := curve[m]
		want := 2 / (math.Pi * float64(m))
		if math.Abs(got-want)/want > 0.35 {
			t.Errorf("equalization P[%d] = %v, want ~%v", m, got, want)
		}
	}
}

func TestEqualizationCurveMatchesExactFormula(t *testing.T) {
	// Far from wraparound, the torus walk equals the infinite lattice
	// walk, whose return probability has the closed form
	// [C(m, m/2)/2^m]^2 (core.ExactEqualizationProbability).
	g := topology.MustTorus(2, 256)
	s := rng.New(51)
	const maxM, trials = 32, 200000
	curve := EqualizationCurve(g, g.Node(100, 100), maxM, trials, s)
	for m := 2; m <= maxM; m += 2 {
		want := core.ExactEqualizationProbability(m)
		slack := 4*math.Sqrt(want*(1-want)/trials) + 1e-4
		if math.Abs(curve[m]-want) > slack {
			t.Errorf("equalization P[%d] = %v, exact %v (slack %v)", m, curve[m], want, slack)
		}
	}
}

func TestEqualizationCountsLogGrowth(t *testing.T) {
	// Corollary 16 consequence: E[# returns in t steps] =
	// Theta(log t) on the 2-D torus — quadrupling t should add a
	// roughly constant increment, not multiply.
	g := topology.MustTorus(2, 512)
	s := rng.New(6)
	m1 := stats.Mean(EqualizationCounts(g, 256, 4000, s))
	m2 := stats.Mean(EqualizationCounts(g, 1024, 4000, s.Split(99)))
	if m2 <= m1 {
		t.Fatalf("mean equalizations did not grow: %v -> %v", m1, m2)
	}
	if m2 > 2.5*m1 {
		t.Errorf("mean equalizations grew super-logarithmically: %v -> %v", m1, m2)
	}
}

func TestPairCollisionCountsMeanIsTOverA(t *testing.T) {
	// Lemma 2 at pair level: E[c_j] = t/A for uniformly placed walks.
	g := topology.MustTorus(2, 24) // A = 576
	s := rng.New(7)
	const tRounds, trials = 500, 20000
	counts := PairCollisionCounts(g, tRounds, trials, s)
	got := stats.Mean(counts)
	want := float64(tRounds) / float64(g.NumNodes())
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("mean pair collision count = %v, want ~%v", got, want)
	}
}

func TestPairCollisionVarianceWithinMomentBound(t *testing.T) {
	// Lemma 11 with k=2: Var(c_j) <= (t w^2/A) * 2 * log^2(2t) for
	// some constant w. Check the measured variance is within a
	// generous constant of (t/A)*log^2(2t).
	g := topology.MustTorus(2, 24)
	s := rng.New(8)
	const tRounds, trials = 500, 20000
	counts := PairCollisionCounts(g, tRounds, trials, s)
	v := stats.Variance(counts)
	scale := float64(tRounds) / float64(g.NumNodes()) * math.Pow(math.Log(2*float64(tRounds)), 2)
	if v > 10*scale {
		t.Errorf("pair collision variance %v exceeds 10x moment-bound scale %v", v, scale)
	}
	if v < scale/100 {
		t.Errorf("pair collision variance %v suspiciously below scale %v", v, scale)
	}
}

func TestPairCollisionThirdMomentWithinBound(t *testing.T) {
	// Lemma 11 with k=3: E[|c_j - E c_j|^3] <= (t w^3/A) * 3! *
	// log^3(2t). Verify the measured third absolute central moment
	// stays within a generous constant of the (t/A) log^3(2t) scale.
	g := topology.MustTorus(2, 24)
	s := rng.New(81)
	const tRounds, trials = 500, 30000
	counts := PairCollisionCounts(g, tRounds, trials, s)
	mean := stats.Mean(counts)
	var m3 float64
	for _, c := range counts {
		d := math.Abs(c - mean)
		m3 += d * d * d
	}
	m3 /= trials
	scale := float64(tRounds) / float64(g.NumNodes()) * math.Pow(math.Log(2*float64(tRounds)), 3)
	if m3 > 20*scale {
		t.Errorf("third absolute moment %v exceeds 20x moment-bound scale %v", m3, scale)
	}
	// And it must exceed the variance scale — heavy tail from repeat
	// collisions is the whole point of the moment analysis.
	if v := stats.Variance(counts); m3 < v {
		t.Errorf("third moment %v below variance %v; repeat-collision tail missing", m3, v)
	}
}

func TestSumCurve(t *testing.T) {
	got := SumCurve([]float64{1, 0, 0.5, 0.25})
	want := []float64{1, 1, 1.5, 1.75}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("SumCurve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHypercubeRecollisionGeometricDecay(t *testing.T) {
	// Lemma 25: on the hypercube the m-dependence decays
	// geometrically to the 1/sqrt(A) floor.
	h := topology.MustHypercube(14) // A = 16384, floor ~ 0.0078
	s := rng.New(13)
	curve := RecollisionCurve(h, 0, 24, 50000, s)
	floor := 1 / math.Sqrt(float64(h.NumNodes()))
	// By m=20 the geometric term (9/10)^m is ~0.12 but the true decay
	// is much faster; empirically the curve should be within a small
	// factor of the floor by m=20.
	if curve[20] > 10*floor {
		t.Errorf("hypercube curve[20] = %v, want near floor %v", curve[20], floor)
	}
	// And the Lemma 25 bound itself holds at every even m.
	for m := 2; m <= 24; m += 2 {
		bound := math.Pow(0.9, float64(m-1)) + floor
		if curve[m] > bound+0.02 {
			t.Errorf("hypercube curve[%d] = %v exceeds Lemma 25 bound %v", m, curve[m], bound)
		}
	}
}

func TestExpanderRecollisionBound(t *testing.T) {
	// Lemma 23: P[re-collision after m] <= lambda^m + 1/A.
	s := rng.New(14)
	g, err := topology.NewRandomRegular(2000, 8, s)
	if err != nil {
		t.Fatal(err)
	}
	lambda := topology.SpectralGap(g, 200, s.Split(1))
	curve := RecollisionCurve(g, 0, 16, 40000, s.Split(2))
	for m := 1; m <= 16; m++ {
		bound := math.Pow(lambda, float64(m)) + 1/float64(g.NumNodes())
		// Allow Monte Carlo slack of 3 binomial sigmas.
		slack := 3 * math.Sqrt(bound*(1-bound)/40000)
		if curve[m] > bound+slack+0.005 {
			t.Errorf("expander curve[%d] = %v exceeds Lemma 23 bound %v", m, curve[m], bound)
		}
	}
}

func TestValidatePanics(t *testing.T) {
	g := topology.MustTorus(2, 8)
	s := rng.New(15)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"negative steps", func() { RecollisionCurve(g, 0, -1, 10, s) }},
		{"zero trials", func() { EqualizationCurve(g, 0, 10, 0, s) }},
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
