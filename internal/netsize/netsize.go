// Package netsize implements the paper's Section 5.1 application:
// estimating the size of a network reachable only through link
// queries, by running multiple random walks and counting their
// degree-weighted collisions over time (Algorithm 2), estimating the
// average degree by inverse-degree sampling (Algorithm 3), and
// burning in walks from a seed vertex per the Section 5.1.4 analysis.
// KatzirEstimate reimplements the [KLSC14] comparator that counts
// collisions only in the single round immediately after burn-in.
//
// Every vertex-neighborhood access is a "link query", the cost unit
// of the paper's Section 5.1.5 comparison; QueryCost reports the
// totals so the experiments can regenerate the query-tradeoff series.
package netsize

import (
	"context"
	"fmt"
	"math"
	"sort"

	"antdensity/internal/rng"
	"antdensity/internal/sim"
	"antdensity/internal/stats"
	"antdensity/internal/topology"
)

// Walkers is a set of random-walk positions on a graph, with link
// query accounting. The walks run on a sim.World, so every step takes
// the world's batched random-walk dispatch — arithmetic kernels on the
// regular topologies, the offsets/neighbors kernel on CSR graphs — and
// the per-round collision totals come from the world's incrementally
// maintained occupancy index instead of a per-round hash map. Stream
// derivation is preserved bit-for-bit from the historical scalar
// implementation (each walker's stream is a Split child of the caller
// stream), so estimates are unchanged for any fixed seed.
type Walkers struct {
	world *sim.World
	// adj is the graph when it is CSR and nil otherwise: degreeAt and
	// weightCounts then read walker degrees from its offsets instead
	// of calling Graph.Degree.
	adj     *topology.Adj
	queries int64
	counts  []int // scratch for bulk count snapshots
}

// newWalkers builds the backing world from explicitly derived
// positions and streams.
func newWalkers(g topology.Graph, pos []int64, streams []rng.Stream) (*Walkers, error) {
	world, err := sim.NewWorld(sim.Config{
		Graph:     g,
		NumAgents: len(pos),
		Positions: pos,
		Streams:   streams,
	})
	if err != nil {
		return nil, err
	}
	adj, _ := g.(*topology.Adj)
	return &Walkers{world: world, adj: adj}, nil
}

// degreeAt returns the degree of v, a vertex walkers stand on:
// (*Adj).DegreeUnchecked on a CSR graph (walker positions are valid
// nodes), Graph.Degree on any other.
func (w *Walkers) degreeAt(v int64) int {
	if w.adj != nil {
		return w.adj.DegreeUnchecked(v)
	}
	return w.world.Graph().Degree(v)
}

// NewWalkersAtSeed starts n walkers at the given seed vertex — the
// realistic access model where only one vertex is known a priori. The
// seed vertex needs at least one edge endpoint: walkers on an isolated
// vertex never move, and their degree weights are undefined.
func NewWalkersAtSeed(g topology.Graph, n int, seed int64, s *rng.Stream) (*Walkers, error) {
	if n < 2 {
		return nil, fmt.Errorf("netsize: need >= 2 walkers, got %d", n)
	}
	if seed < 0 || seed >= g.NumNodes() {
		return nil, fmt.Errorf("netsize: seed vertex %d out of range [0, %d)", seed, g.NumNodes())
	}
	if g.Degree(seed) == 0 {
		return nil, fmt.Errorf("netsize: seed vertex %d has degree 0", seed)
	}
	pos := make([]int64, n)
	streams := make([]rng.Stream, n)
	for i := range pos {
		pos[i] = seed
		streams[i] = s.SplitValue(uint64(i))
	}
	return newWalkers(g, pos, streams)
}

// NewWalkersStationary starts n walkers at independent samples from
// the network's stable distribution (probability proportional to
// degree) — the idealized model analyzed first in Section 5.1.2.
// Each walker draws r uniformly below the degree sum and stands on the
// node whose share of that sum holds r. On a topology.Regular graph
// (torus, hypercube, complete) every share is the common degree k, so
// the node is r / k and no table is built; any other graph
// materializes a cumulative-degree table of length A, no larger than
// the adjacency it already holds.
func NewWalkersStationary(g topology.Graph, n int, s *rng.Stream) (*Walkers, error) {
	if n < 2 {
		return nil, fmt.Errorf("netsize: need >= 2 walkers, got %d", n)
	}
	a := g.NumNodes()
	var total int64
	var node func(r int64) int64
	if rg, ok := g.(topology.Regular); ok {
		k := int64(rg.CommonDegree())
		total = a * k
		node = func(r int64) int64 { return r / k }
	} else {
		cum := make([]int64, a+1)
		for v := int64(0); v < a; v++ {
			cum[v+1] = cum[v] + int64(g.Degree(v))
		}
		total = cum[a]
		// Find v with cum[v] <= r < cum[v+1].
		node = func(r int64) int64 {
			return int64(sort.Search(int(a), func(x int) bool { return cum[x+1] > r }))
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("netsize: graph has no edges")
	}
	pos := make([]int64, n)
	streams := make([]rng.Stream, n)
	for i := range pos {
		// The stream split must happen after this walker's placement
		// draw, reproducing the historical derivation order exactly.
		pos[i] = node(int64(s.Uint64n(uint64(total))))
		streams[i] = s.SplitValue(uint64(i))
	}
	return newWalkers(g, pos, streams)
}

// NumWalkers returns the number of walkers.
func (w *Walkers) NumWalkers() int { return w.world.NumAgents() }

// Positions returns a copy of the walker positions.
func (w *Walkers) Positions() []int64 { return w.world.Positions() }

// Queries returns the cumulative number of link queries issued so
// far. One query is charged per walker step (each step requires the
// current vertex's neighborhood).
func (w *Walkers) Queries() int64 { return w.queries }

// Step advances every walker one uniform random step, charging one
// link query per walker.
func (w *Walkers) Step() {
	w.world.Step()
	w.queries += int64(w.world.NumAgents())
}

// BurnIn advances all walkers m steps. With m >= the mixing-derived
// bound of Section 5.1.4 (see topology.MixingTime), the walker
// distribution is within total-variation delta of stationary.
func (w *Walkers) BurnIn(m int) {
	_ = w.BurnInContext(context.Background(), m, nil)
}

// BurnInContext is BurnIn with cooperative cancellation: it checks ctx
// between steps and returns ctx's error once cancelled, leaving the
// walkers on a round boundary. onRound, when non-nil, is invoked after
// every completed step (the facade's progress hook).
func (w *Walkers) BurnInContext(ctx context.Context, m int, onRound func()) error {
	for i := 0; i < m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w.Step()
		if onRound != nil {
			onRound()
		}
	}
	return nil
}

// scratch returns the reusable per-walker count buffer.
func (w *Walkers) scratch() []int {
	if w.counts == nil {
		w.counts = make([]int, w.world.NumAgents())
	}
	return w.counts
}

// weightedCollisions returns sum over walkers of
// count(position)/deg(position) for the current round — the
// degree-corrected collision total of Algorithm 2.
func (w *Walkers) weightedCollisions() float64 {
	return w.weightCounts(w.world.CountsAllInto(w.scratch()))
}

// weightCounts folds a bulk count snapshot into the degree-weighted
// collision total. Accumulation runs in walker-index order so the
// float sum is bit-identical across runs. Every walker is summed, with
// no branch on its count: counts are >= 0 and every vertex a walker
// stands on has degree >= 1 (no walker starts on an isolated vertex,
// and an undirected Graph's walk never reaches one), so a zero count
// adds +0 to a sum that starts at +0 and never decreases, which leaves
// its bits as they were. The graph's kind is checked once per call,
// not per walker: on a CSR graph the loop reads degrees from the
// offsets with no call (degreeAt, whose Graph.Degree fallback puts it
// over the inliner's budget, would be a call per walker).
//
//antlint:noalloc
func (w *Walkers) weightCounts(counts []int) float64 {
	var sum float64
	if adj := w.adj; adj != nil {
		for i, c := range counts {
			sum += float64(c) / float64(adj.DegreeUnchecked(w.world.Pos(i)))
		}
		return sum
	}
	g := w.world.Graph()
	for i, c := range counts {
		sum += float64(c) / float64(g.Degree(w.world.Pos(i)))
	}
	return sum
}

// EstimateAvgDegree implements Algorithm 3: it returns
// D = (1/n) * sum_j 1/deg(w_j), an unbiased estimate of 1/degAvg when
// walkers are stationary (Theorem 31). No link queries are charged:
// the walkers' current degrees are known from the queries that
// brought them there.
func (w *Walkers) EstimateAvgDegree() float64 {
	n := w.world.NumAgents()
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / float64(w.degreeAt(w.world.Pos(i)))
	}
	return sum / float64(n)
}

// Result is the output of a size estimation run.
type Result struct {
	// Size is the network size estimate A-tilde = 1/C.
	Size float64
	// C is the normalized weighted collision rate with expectation
	// 1/|V| (Lemma 28).
	C float64
	// InvAvgDegree is the Algorithm 3 estimate of 1/degAvg used in
	// the normalization.
	InvAvgDegree float64
	// Queries is the cumulative link queries consumed by the walkers,
	// including burn-in.
	Queries int64
}

// EstimateSize implements Algorithm 2: run the walkers t further
// steps, accumulate degree-weighted collisions each round, and return
// the size estimate
//
//	A-tilde = 1 / C,  C = degAvg * sum_j c_j / (n (n-1) t).
//
// If invAvgDegree > 0 it is used as the estimate of 1/degAvg
// (supplied, for instance, by a prior EstimateAvgDegree call);
// otherwise Algorithm 3 is invoked on the walkers' current positions.
// A zero collision total yields Size = +Inf; callers needing
// robustness should use MedianOfMeansSize or larger n^2 t.
func (w *Walkers) EstimateSize(t int, invAvgDegree float64) (*Result, error) {
	return w.EstimateSizeContext(context.Background(), t, invAvgDegree)
}

// EstimateSizeContext is EstimateSize with cooperative cancellation
// (see sim.RunContext) and optional extra observers riding along on
// the counting run (the facade's snapshot publisher); per the
// pipeline's determinism invariant they cannot change the estimate.
func (w *Walkers) EstimateSizeContext(ctx context.Context, t int, invAvgDegree float64, extra ...sim.Observer) (*Result, error) {
	if t < 1 {
		return nil, fmt.Errorf("netsize: step count must be >= 1, got %d", t)
	}
	if invAvgDegree <= 0 {
		invAvgDegree = w.EstimateAvgDegree()
	}
	// The counting loop is a pipeline observer: each observed round it
	// folds the shared bulk count snapshot into the weighted collision
	// total and charges the round's link queries.
	var total float64
	obs := append([]sim.Observer{sim.ObserverFunc(func(r *sim.Round) sim.Signal {
		w.queries += int64(w.world.NumAgents())
		total += w.weightCounts(r.Counts())
		return sim.Continue
	})}, extra...)
	if _, err := sim.RunContext(ctx, w.world, t, obs...); err != nil {
		return nil, err
	}
	n := float64(w.world.NumAgents())
	c := total / (invAvgDegree * n * (n - 1) * float64(t))
	return &Result{
		Size:         1 / c,
		C:            c,
		InvAvgDegree: invAvgDegree,
		Queries:      w.queries,
	}, nil
}

// KatzirEstimate reimplements the [KLSC14] baseline: walkers are
// halted where they stand (immediately after burn-in) and collisions
// are counted once, in that single configuration. The estimate is
//
//	A-tilde = 1 / C,  C = degAvg * sum_j c_j / (n (n-1)).
//
// Zero collisions yield +Inf, which is common unless n =
// Omega(sqrt(|V|)) — the weakness the paper's multi-round estimator
// addresses.
func (w *Walkers) KatzirEstimate(invAvgDegree float64) *Result {
	if invAvgDegree <= 0 {
		invAvgDegree = w.EstimateAvgDegree()
	}
	n := float64(w.world.NumAgents())
	c := w.weightedCollisions() / (invAvgDegree * n * (n - 1))
	return &Result{Size: 1 / c, C: c, InvAvgDegree: invAvgDegree, Queries: w.queries}
}

// Config bundles the parameters of a full size estimation pipeline.
type Config struct {
	// Walkers is the number of simultaneous random walks n.
	Walkers int
	// Steps is the collision counting horizon t.
	Steps int
	// BurnIn is the number of burn-in steps; if negative, it is
	// derived from the spectral gap via topology.MixingTime with
	// Delta.
	BurnIn int
	// Delta is the failure probability target used when deriving
	// burn-in automatically. Zero means 0.1.
	Delta float64
	// Seed drives all randomness.
	Seed uint64
	// SeedVertex is where walks begin. Ignored when Stationary.
	SeedVertex int64
	// Stationary skips burn-in and samples starts from the stable
	// distribution directly (the idealized Section 5.1.2 model).
	Stationary bool
	// Progress, when non-nil, is invoked after every walker round —
	// burn-in and collision counting alike — with the number of
	// completed rounds and the total planned. It is a pure observation
	// hook (the facade's Run snapshots attach here); the estimate is
	// unaffected.
	Progress func(done, total int)
}

// Estimate runs the full pipeline of Section 5.1 on g: start walkers,
// burn in (unless stationary), estimate the average degree by
// Algorithm 3, then the network size by Algorithm 2.
func Estimate(g topology.Graph, cfg Config) (*Result, error) {
	return EstimateContext(context.Background(), g, cfg)
}

// EstimateContext is Estimate with cooperative cancellation: the
// pipeline checks ctx on every round boundary (burn-in and counting)
// and returns ctx's error once cancelled.
func EstimateContext(ctx context.Context, g topology.Graph, cfg Config) (*Result, error) {
	if cfg.Delta == 0 {
		cfg.Delta = 0.1
	}
	edges := topology.NumEdges(g)
	if edges < 1 {
		return nil, fmt.Errorf("netsize: graph has no edges")
	}
	if !cfg.Stationary {
		if cfg.BurnIn < 0 && g.NumNodes() > topology.MaxSpectralGapNodes {
			return nil, fmt.Errorf("netsize: a negative BurnIn derives the burn-in from the spectral gap, which takes at most %d nodes, not %d", topology.MaxSpectralGapNodes, g.NumNodes())
		}
		// Every walker keeps the seed vertex's side of a bipartite
		// graph, so the walkers meet on half the nodes at most and the
		// estimate is about half the size, whatever the burn-in.
		if topology.IsBipartite(g) {
			return nil, fmt.Errorf("netsize: graph is bipartite, so walkers started at one seed vertex never mix; start them stationary")
		}
	}
	root := rng.New(cfg.Seed)
	var w *Walkers
	var err error
	if cfg.Stationary {
		w, err = NewWalkersStationary(g, cfg.Walkers, root)
	} else {
		w, err = NewWalkersAtSeed(g, cfg.Walkers, cfg.SeedVertex, root)
	}
	if err != nil {
		return nil, err
	}
	burn := 0
	if !cfg.Stationary {
		burn = cfg.BurnIn
		if burn < 0 {
			lambda := topology.SpectralGap(g, 300, root.Split(1<<32))
			// The Section 5.1 analysis requires a connected,
			// non-bipartite network. Bipartite graphs are refused
			// above; lambda ~ 1 signals a disconnected or
			// near-bipartite one, on which no burn-in length mixes
			// the walk.
			if lambda > 0.9999 {
				return nil, fmt.Errorf("netsize: measured spectral value %.6f ~ 1; graph is (near-)bipartite or disconnected, burn-in cannot converge", lambda)
			}
			burn = topology.MixingTime(edges, lambda, cfg.Delta)
		}
	}
	total := burn + cfg.Steps
	done := 0
	tick := func() {
		done++
		if cfg.Progress != nil {
			cfg.Progress(done, total)
		}
	}
	if burn > 0 {
		if err := w.BurnInContext(ctx, burn, tick); err != nil {
			return nil, err
		}
	}
	inv := w.EstimateAvgDegree()
	return w.EstimateSizeContext(ctx, cfg.Steps, inv, sim.ObserverFunc(func(r *sim.Round) sim.Signal {
		tick()
		return sim.Continue
	}))
}

// MedianOfMeansSize amplifies Estimate's constant success probability
// to high probability by running reps independent estimates and
// returning the median of their C values (inverted at the end), the
// amplification the paper describes in Section 5.1.2. Infinite
// estimates (zero collisions) are handled naturally: their C is 0 and
// participates in the median. The total query cost is also returned.
func MedianOfMeansSize(g topology.Graph, cfg Config, reps int) (size float64, queries int64, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("netsize: reps must be >= 1, got %d", reps)
	}
	cs := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		sub := cfg
		sub.Seed = cfg.Seed + uint64(r)*0x9e3779b97f4a7c15
		res, err := Estimate(g, sub)
		if err != nil {
			return 0, 0, err
		}
		cs = append(cs, res.C)
		queries += res.Queries
	}
	medianC := stats.Median(cs)
	if medianC == 0 {
		return math.Inf(1), queries, nil
	}
	return 1 / medianC, queries, nil
}

// TheoryWalkerCount returns the Theorem 27 walker requirement: for a
// (1 +- eps) size estimate with probability 1-delta using t steps,
// n^2 t = Theta((B(t)*degAvg + 1)/(eps^2 delta) * |V|); this solves
// for n with constant 1.
func TheoryWalkerCount(numNodes int64, bt, degAvg, eps, delta float64, t int) int {
	if t < 1 {
		panic(fmt.Sprintf("netsize: t must be >= 1, got %d", t))
	}
	if eps <= 0 || delta <= 0 {
		panic("netsize: eps and delta must be positive")
	}
	n2t := (bt*degAvg + 1) / (eps * eps * delta) * float64(numNodes)
	return int(math.Ceil(math.Sqrt(n2t / float64(t))))
}
