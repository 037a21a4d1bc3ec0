package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds produced %d equal draws out of 64", same)
	}
}

func TestSplitDeterministicAndIndependent(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c1again := parent.Split(1)
	c2 := parent.Split(2)
	for i := 0; i < 100; i++ {
		v1, v1b, v2 := c1.Uint64(), c1again.Uint64(), c2.Uint64()
		if v1 != v1b {
			t.Fatalf("draw %d: Split(1) not deterministic", i)
		}
		if v1 == v2 {
			t.Fatalf("draw %d: Split(1) and Split(2) coincide", i)
		}
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(5)
	if a.Uint64() != b.Uint64() {
		t.Error("Split advanced the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	s := New(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			s.Intn(n)
		}()
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared style sanity check: 10 buckets, 100k draws. With
	// uniform draws each bucket expects 10000 +- ~300 (3 sigma ~ 285).
	s := New(11)
	const buckets, draws = 10, 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %v", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(6)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	tests := []struct {
		p    float64
		want float64 // expected acceptance frequency
	}{
		{p: -0.5, want: 0},
		{p: 0, want: 0},
		{p: 0.25, want: 0.25},
		{p: 0.75, want: 0.75},
		{p: 1, want: 1},
		{p: 1.5, want: 1},
	}
	for _, tt := range tests {
		s := New(13)
		const n = 100000
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bernoulli(tt.p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-tt.want) > 0.01 {
			t.Errorf("Bernoulli(%v): frequency %v, want ~%v", tt.p, got, tt.want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(23)
	const n, draws = 5, 50000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("first element %d: count %d, want ~%v", i, c, want)
		}
	}
}

func TestUint64nProperty(t *testing.T) {
	// Property: Uint64n(n) < n for all positive n.
	s := New(29)
	f := func(n uint64, steps uint8) bool {
		if n == 0 {
			n = 1
		}
		for i := 0; i < int(steps%16)+1; i++ {
			if s.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn4(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Intn(4)
	}
	_ = sink
}

func TestSplitValueMatchesSplit(t *testing.T) {
	parent := New(99)
	for id := uint64(0); id < 50; id++ {
		byPtr := parent.Split(id)
		byVal := parent.SplitValue(id)
		for draw := 0; draw < 8; draw++ {
			want := byPtr.Uint64()
			var got uint64
			got, byVal = byVal.Next()
			if got != want {
				t.Fatalf("id %d draw %d: SplitValue/Next = %d, Split/Uint64 = %d", id, draw, got, want)
			}
		}
	}
}

func TestNextMatchesUint64(t *testing.T) {
	ptr := New(7)
	val := *New(7)
	for i := 0; i < 1000; i++ {
		want := ptr.Uint64()
		var got uint64
		got, val = val.Next()
		if got != want {
			t.Fatalf("draw %d: Next = %d, Uint64 = %d", i, got, want)
		}
	}
	// Next must leave its receiver untouched.
	fixed := *New(11)
	a, _ := fixed.Next()
	b, _ := fixed.Next()
	if a != b {
		t.Errorf("Next mutated its value receiver: %d then %d", a, b)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	s := New(1)
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, 0.5) = %d, want 0", got)
	}
	if got := s.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d, want 0", got)
	}
	if got := s.Binomial(10, -0.5); got != 0 {
		t.Errorf("Binomial(10, -0.5) = %d, want 0 (clamped)", got)
	}
	if got := s.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d, want 10", got)
	}
	if got := s.Binomial(10, 1.5); got != 10 {
		t.Errorf("Binomial(10, 1.5) = %d, want 10 (clamped)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Binomial(-1, 0.5) did not panic")
		}
	}()
	s.Binomial(-1, 0.5)
}

func TestBinomialDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 200; i++ {
		if x, y := a.Binomial(17, 0.3), b.Binomial(17, 0.3); x != y {
			t.Fatalf("draw %d: same seed gave %d and %d", i, x, y)
		}
	}
}

func TestBinomialMomentsProperty(t *testing.T) {
	// Property: for a grid of (n, p), the sampler's empirical mean and
	// variance match np and np(1-p), every sample lies in [0, n], and
	// large n (forcing the chunked path) stays calibrated.
	s := New(99)
	cases := []struct {
		n int
		p float64
	}{
		{1, 0.5}, {4, 0.25}, {20, 0.1}, {20, 0.9}, {100, 0.5},
		{3000, 0.37}, {5000, 0.999}, // chunked: (1-p)^n underflows
	}
	const draws = 20000
	for _, c := range cases {
		var sum, sumSq float64
		for i := 0; i < draws; i++ {
			k := s.Binomial(c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial(%d, %v) = %d out of range", c.n, c.p, k)
			}
			f := float64(k)
			sum += f
			sumSq += f * f
		}
		mean := sum / draws
		variance := sumSq/draws - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := float64(c.n) * c.p * (1 - c.p)
		// Standard error of the mean is sqrt(var/draws); allow 6 sigma
		// plus a small absolute slack for the variance estimate.
		tol := 6*math.Sqrt(wantVar/draws) + 1e-9
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("Binomial(%d, %v): mean %v, want %v +- %v", c.n, c.p, mean, wantMean, tol)
		}
		if wantVar > 0.01 && math.Abs(variance-wantVar)/wantVar > 0.15 {
			t.Errorf("Binomial(%d, %v): variance %v, want ~%v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialMatchesBernoulliSumDistribution(t *testing.T) {
	// The single-draw sampler must follow the same distribution as the
	// Bernoulli-sum definition it replaced: compare empirical CDFs.
	const n, p, draws = 12, 0.35, 40000
	fast, slow := New(5), New(6)
	var cdfFast, cdfSlow [n + 1]float64
	for i := 0; i < draws; i++ {
		cdfFast[fast.Binomial(n, p)]++
		k := 0
		for j := 0; j < n; j++ {
			if slow.Bernoulli(p) {
				k++
			}
		}
		cdfSlow[k]++
	}
	cum1, cum2, maxGap := 0.0, 0.0, 0.0
	for k := 0; k <= n; k++ {
		cum1 += cdfFast[k] / draws
		cum2 += cdfSlow[k] / draws
		if gap := math.Abs(cum1 - cum2); gap > maxGap {
			maxGap = gap
		}
	}
	// Two-sample Kolmogorov-Smirnov bound at alpha ~ 1e-6 for these
	// sample sizes is ~0.024; anything near that signals a real
	// distribution mismatch rather than noise.
	if maxGap > 0.024 {
		t.Errorf("CDF gap between Binomial and Bernoulli-sum = %v, want < 0.024", maxGap)
	}
}
