package sensors

import (
	"math"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

func TestBernoulliFieldStatistics(t *testing.T) {
	g := topology.MustTorus(2, 100) // 10000 nodes
	f := BernoulliField(0.3, 1)
	mean := FieldMean(g, f)
	if math.Abs(mean-0.3) > 0.02 {
		t.Errorf("Bernoulli field mean = %v, want ~0.3", mean)
	}
	// Determinism: same node, same value.
	if f(123) != f(123) {
		t.Error("field not deterministic")
	}
	// Values are 0/1 only.
	for v := int64(0); v < 100; v++ {
		if x := f(v); x != 0 && x != 1 {
			t.Fatalf("Bernoulli field value %v", x)
		}
	}
}

func TestFieldsWithDifferentSeedsDiffer(t *testing.T) {
	f1 := BernoulliField(0.5, 1)
	f2 := BernoulliField(0.5, 2)
	same := 0
	for v := int64(0); v < 256; v++ {
		if f1(v) == f2(v) {
			same++
		}
	}
	if same > 200 || same < 56 {
		t.Errorf("different seeds agree on %d/256 nodes; fields not independent-ish", same)
	}
}

func TestTokenEstimateUnbiased(t *testing.T) {
	g := topology.MustTorus(2, 50)
	f := BernoulliField(0.5, 3)
	truth := FieldMean(g, f)
	s := rng.New(4)
	const trials = 3000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += TokenEstimate(g, f, 100, s.Split(uint64(i)))
	}
	got := sum / trials
	if math.Abs(got-truth) > 0.01 {
		t.Errorf("mean token estimate = %v, want ~%v", got, truth)
	}
}

func TestIndependentEstimateUnbiased(t *testing.T) {
	g := topology.MustTorus(2, 50)
	f := BernoulliField(0.4, 5)
	truth := FieldMean(g, f)
	s := rng.New(6)
	const trials = 3000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += IndependentEstimate(g, f, 100, s.Split(uint64(i)))
	}
	got := sum / trials
	if math.Abs(got-truth) > 0.01 {
		t.Errorf("mean independent estimate = %v, want ~%v", got, truth)
	}
}

func TestCompareRMSEModestInflationOn2DTorus(t *testing.T) {
	// Corollary 15's message: revisit overhead on the 2-D grid is
	// logarithmic, so the token's RMSE is within a small factor of
	// independent sampling — far below the sqrt(t) blowup a naive
	// bound would give.
	g := topology.MustTorus(2, 64)
	f := BernoulliField(0.5, 7)
	s := rng.New(8)
	cmp := CompareRMSE(g, f, 256, 4000, s)
	if cmp.Inflation < 1 {
		t.Errorf("token beat independent sampling: inflation %v (suspicious)", cmp.Inflation)
	}
	if cmp.Inflation > 6 {
		t.Errorf("token RMSE inflation = %v, want modest (< 6) per Corollary 15", cmp.Inflation)
	}
}

func TestCompareRMSEWorseOnRing(t *testing.T) {
	// On the ring local mixing is poor (Theta(sqrt t) revisits), so
	// inflation should be clearly larger than on the 2-D torus.
	ring, err := topology.NewRing(4096)
	if err != nil {
		t.Fatal(err)
	}
	torus := topology.MustTorus(2, 64)
	f := BernoulliField(0.5, 9)
	s := rng.New(10)
	const trials, steps = 3000, 256
	ringCmp := CompareRMSE(ring, f, steps, trials, s.Split(1))
	torusCmp := CompareRMSE(torus, f, steps, trials, s.Split(2))
	if ringCmp.Inflation <= torusCmp.Inflation {
		t.Errorf("ring inflation %v not above torus inflation %v", ringCmp.Inflation, torusCmp.Inflation)
	}
}

func TestPanics(t *testing.T) {
	g := topology.MustTorus(2, 8)
	f := BernoulliField(0.5, 1)
	s := rng.New(1)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"token negative t", func() { TokenEstimate(g, f, -1, s) }},
		{"independent negative t", func() { IndependentEstimate(g, f, -1, s) }},
		{"compare zero trials", func() { CompareRMSE(g, f, 10, 0, s) }},
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

func TestTokenEstimateZeroSteps(t *testing.T) {
	// t=0: the estimate is a single sensor's value.
	g := topology.MustTorus(2, 8)
	f := BernoulliField(0.5, 2)
	s := rng.New(3)
	v := TokenEstimate(g, f, 0, s)
	if v != 0 && v != 1 {
		t.Errorf("zero-step token estimate = %v, want 0 or 1", v)
	}
}
