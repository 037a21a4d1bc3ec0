package topology_test

import (
	"math"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
	"antdensity/internal/topology"
)

// These tests live outside package topology so they can build the
// socialnet generators' graphs, which are the CSR graphs SpectralGap
// sees in practice.

// plainGraph hides a graph's concrete type, so the same graph runs
// through SpectralGap's Graph-interface kernel instead of the CSR one.
type plainGraph struct{ topology.Graph }

// The netsize-ba benchmark workload's graph at its seed 1:
// BA(20000, 4) drawn from netsizeBAGraphSeed, with the Spec seed whose
// Split(1<<32) child netsize's auto burn-in hands to SpectralGap.
const (
	netsizeBAGraphSeed = 13757245211066428519
	netsizeBASpecSeed  = 10451216379200822465
)

func mustBA(tb testing.TB, n int64, seed uint64) *topology.Adj {
	tb.Helper()
	g, err := socialnet.BarabasiAlbert(n, 4, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// csrGraphs returns one graph per CSR shape the repository builds,
// plus a hand-built one with a multi-edge, a self-loop and an isolated
// node.
func csrGraphs(t *testing.T) []struct {
	name string
	g    *topology.Adj
} {
	t.Helper()
	must := func(g *topology.Adj, err error) *topology.Adj {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	er := must(socialnet.ErdosRenyi(800, 0.01, rng.New(2)))
	return []struct {
		name string
		g    *topology.Adj
	}{
		{"ba", mustBA(t, 2000, 1)},
		{"er-connected", socialnet.Connected(er)},
		{"ws", must(socialnet.WattsStrogatz(1000, 6, 0.1, rng.New(3)))},
		{"random-regular", must(topology.NewRandomRegular(1001, 6, rng.New(4)))},
		{"power-law", must(socialnet.PowerLawConfiguration(1500, 2.5, 2, 60, rng.New(5)))},
		{"hand-built", topology.MustAdj(6, []topology.Edge{
			{U: 0, V: 1}, {U: 0, V: 1}, // multi-edge
			{U: 1, V: 2}, {U: 2, V: 2}, // self-loop
			{U: 2, V: 3}, {U: 3, V: 0}, {U: 3, V: 4},
		})}, // node 5 is isolated
	}
}

// TestNumEdgesCSRMatchesDegreeLoop pins NumEdges' O(1) *Adj path (its
// neighbor array length) to the degree-sum loop every other Graph
// takes, on each CSR shape plus an edgeless graph.
func TestNumEdgesCSRMatchesDegreeLoop(t *testing.T) {
	graphs := append(csrGraphs(t), struct {
		name string
		g    *topology.Adj
	}{"edgeless", topology.MustAdj(2, nil)})
	for _, tc := range graphs {
		if got, want := topology.NumEdges(tc.g), topology.NumEdges(plainGraph{tc.g}); got != want {
			t.Errorf("%s: NumEdges = %d, degree loop %d", tc.name, got, want)
		}
	}
	// 13 endpoints: two multi-edge copies, one self-loop (counted
	// once), four plain edges.
	if got := topology.NumEdges(graphs[len(graphs)-2].g); got != 6 {
		t.Errorf("hand-built NumEdges = %d, want 6", got)
	}
}

// TestSpectralGapCSRKernelBitIdentical runs every graph through both
// mat-vec kernels and requires the same lambda bits.
func TestSpectralGapCSRKernelBitIdentical(t *testing.T) {
	for _, tc := range csrGraphs(t) {
		for _, iters := range []int{1, 2, 300} {
			csr := topology.SpectralGap(tc.g, iters, rng.New(9))
			generic := topology.SpectralGap(plainGraph{tc.g}, iters, rng.New(9))
			if math.Float64bits(csr) != math.Float64bits(generic) {
				t.Errorf("%s, %d iterations: CSR lambda %v (%#x), interface lambda %v (%#x)",
					tc.name, iters, csr, math.Float64bits(csr), generic, math.Float64bits(generic))
			}
			if !(csr > 0 && csr < 1) {
				t.Errorf("%s, %d iterations: lambda %v outside (0, 1)", tc.name, iters, csr)
			}
		}
	}
}

// TestSpectralGapNetsizeBAPinned pins lambda on the netsize-ba graph
// to the bits the Graph-interface kernel computed before the CSR
// kernel existed: the burn-in it sets (39 rounds) must not move.
func TestSpectralGapNetsizeBAPinned(t *testing.T) {
	g := mustBA(t, 20_000, netsizeBAGraphSeed)
	got := topology.SpectralGap(g, 300, rng.New(netsizeBASpecSeed).Split(1<<32))
	const want = 0x3fe490c766d26ec0 // 0.6426732071153864
	if math.Float64bits(got) != want {
		t.Errorf("lambda = %v (%#x), want %v (%#x)", got, math.Float64bits(got), math.Float64frombits(want), uint64(want))
	}
	if burn := topology.MixingTime(topology.NumEdges(g), got, 0.1); burn != 39 {
		t.Errorf("burn-in = %d rounds, want 39", burn)
	}
}

// BenchmarkSpectralGap measures the power iteration at the netsize-ba
// benchmark workload's shape: BA(20000, 4), 300 iterations, the
// computation behind every auto burn-in there.
func BenchmarkSpectralGap(b *testing.B) {
	g := mustBA(b, 20_000, netsizeBAGraphSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lambdaSink = topology.SpectralGap(g, 300, rng.New(netsizeBASpecSeed).Split(1<<32))
	}
}

var lambdaSink float64
