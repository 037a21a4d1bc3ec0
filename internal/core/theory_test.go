package core

import (
	"math"
	"testing"
)

func TestTheoremOneEpsilonShape(t *testing.T) {
	// eps decreases in t and d, increases as delta shrinks.
	base := TheoremOneEpsilon(1000, 0.1, 0.05, 1)
	if moreT := TheoremOneEpsilon(4000, 0.1, 0.05, 1); moreT >= base {
		t.Errorf("eps did not decrease with t: %v -> %v", base, moreT)
	}
	if moreD := TheoremOneEpsilon(1000, 0.4, 0.05, 1); moreD >= base {
		t.Errorf("eps did not decrease with d: %v -> %v", base, moreD)
	}
	if smallerDelta := TheoremOneEpsilon(1000, 0.1, 0.001, 1); smallerDelta <= base {
		t.Errorf("eps did not increase as delta shrank: %v -> %v", base, smallerDelta)
	}
}

func TestTheoremOneEpsilonValue(t *testing.T) {
	// Direct formula check: eps = c1*sqrt(log(1/delta)/(t*d))*log(2t).
	got := TheoremOneEpsilon(50, 0.5, 1/math.E, 2)
	want := 2 * math.Sqrt(1.0/25) * math.Log(100)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("eps = %v, want %v", got, want)
	}
}

func TestTheoremOneRoundsDominatesTheorem32(t *testing.T) {
	// The torus needs at most a polylog factor more rounds than
	// independent sampling (with matching constants). Theorem 32's
	// accuracy at t rounds is eps*sqrt(indep/t), where indep is the
	// independent-sampling round count for eps, so the ratio of round
	// counts is the squared ratio of accuracies.
	for _, eps := range []float64{0.1, 0.3} {
		for _, d := range []float64{0.01, 0.2} {
			torus := TheoremOneRounds(eps, 0.05, d, 1)
			ratio := math.Pow(eps/Theorem32Epsilon(torus, d, 0.05), 2)
			if ratio < 1 {
				t.Errorf("eps=%v d=%v: torus rounds %d below independent sampling's (ratio %v)", eps, d, torus, ratio)
			}
			// and within a generous polylog factor
			logFactor := math.Pow(math.Log(1/(d*eps))+5, 2)
			if ratio > 4*logFactor {
				t.Errorf("eps=%v d=%v: torus/indep ratio %v exceeds polylog budget %v", eps, d, ratio, 4*logFactor)
			}
		}
	}
}

func TestBTorus2DIsLogarithmic(t *testing.T) {
	// B(t) = H_{t+1} ~ ln t + gamma.
	for _, tt := range []int{10, 100, 10000} {
		got := BTorus2D(tt)
		want := math.Log(float64(tt)) + 0.5772
		if math.Abs(got-want) > 0.2 {
			t.Errorf("BTorus2D(%d) = %v, want ~%v", tt, got, want)
		}
	}
}

func TestBRingIsSqrt(t *testing.T) {
	// B(t) = sum 1/sqrt(m+1) ~ 2*sqrt(t).
	for _, tt := range []int{100, 10000} {
		got := BRing(tt)
		want := 2 * math.Sqrt(float64(tt))
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("BRing(%d) = %v, want ~%v", tt, got, want)
		}
	}
}

func TestBTorusKBounded(t *testing.T) {
	// For k >= 3, B(t) converges: B(10^6) close to B(10^3).
	small, large := BTorusK(1000, 3), BTorusK(1000000, 3)
	if large-small > 0.1 {
		t.Errorf("BTorusK(k=3) still growing: %v -> %v", small, large)
	}
	// Higher k converges to smaller limits.
	if BTorusK(1000, 5) >= BTorusK(1000, 3) {
		t.Error("BTorusK should decrease with k")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BTorusK with k=2 did not panic")
			}
		}()
		BTorusK(100, 2)
	}()
}

func TestBExpander(t *testing.T) {
	got := BExpander(1000, 0.5, 100000)
	want := 2.0 + 0.01
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("BExpander = %v, want %v", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BExpander with lambda=1 did not panic")
			}
		}()
		BExpander(10, 1, 100)
	}()
}

func TestBHypercube(t *testing.T) {
	got := BHypercube(100, 1<<16) // sqrt(A) = 256
	want := 10 + 100.0/256
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("BHypercube = %v, want %v", got, want)
	}
}

func TestLemma19RecoversTheoremOneUpToConstants(t *testing.T) {
	// With B(t) = BTorus2D(t), Lemma 19 should match Theorem 1's eps
	// up to the constant (Theorem 1 uses log(2t), harmonic ~ ln t).
	tRounds := 5000
	l19 := Lemma19Epsilon(tRounds, 0.1, 0.05, BTorus2D(tRounds))
	t1 := TheoremOneEpsilon(tRounds, 0.1, 0.05, 1)
	ratio := l19 / t1
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("Lemma19/Theorem1 eps ratio = %v, want within [0.5, 2]", ratio)
	}
}

func TestTheorem21EpsilonShape(t *testing.T) {
	// Ring bound: eps ~ t^(-1/4), so quadrupling t should halve...
	// no — multiply t by 16 to halve eps.
	e1 := Theorem21Epsilon(100, 0.1, 0.1)
	e2 := Theorem21Epsilon(1600, 0.1, 0.1)
	if math.Abs(e1/e2-2) > 1e-9 {
		t.Errorf("t x16 changed ring eps by %v, want exactly 2", e1/e2)
	}
}

func TestExactEqualizationProbability(t *testing.T) {
	// Hand-computed values: m=0 -> 1; m=2 -> (C(2,1)/4)^2 = 1/4;
	// m=4 -> (C(4,2)/16)^2 = (6/16)^2 = 9/64; odd m -> 0.
	tests := []struct {
		m    int
		want float64
	}{
		{0, 1},
		{1, 0},
		{2, 0.25},
		{3, 0},
		{4, 9.0 / 64},
	}
	for _, tt := range tests {
		if got := ExactEqualizationProbability(tt.m); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("ExactEqualizationProbability(%d) = %v, want %v", tt.m, got, tt.want)
		}
	}
	// Asymptotics: m*P -> 2/pi.
	for _, m := range []int{100, 1000} {
		got := float64(m) * ExactEqualizationProbability(m)
		if math.Abs(got-2/math.Pi) > 0.02 {
			t.Errorf("m*P at m=%d = %v, want ~%v", m, got, 2/math.Pi)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative m did not panic")
			}
		}()
		ExactEqualizationProbability(-1)
	}()
}

func TestValidatorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"eps zero", func() { TheoremOneRounds(0, 0.1, 0.1, 1) }},
		{"delta one", func() { TheoremOneEpsilon(10, 0.1, 1, 1) }},
		{"density zero", func() { TheoremOneEpsilon(10, 0, 0.1, 1) }},
		{"density above one", func() { Theorem32Epsilon(10, 1.5, 0.1) }},
		{"rounds zero", func() { BTorus2D(0) }},
	}
	for _, tc := range cases {
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
