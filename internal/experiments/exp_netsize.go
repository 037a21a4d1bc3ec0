package experiments

// E14 runs the whole Section 5.1 pipeline as stationary
// NetworkSizeSpecs. E15–E17 and E23 measure its parts, which a
// NetworkSizeSpec runs only as a whole: Algorithm 3's average degree,
// the Katzir snapshot against multi-round counting, burn-in starts and
// cross-round path intersections. They drive internal/netsize's
// walkers directly.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"antdensity"
	"antdensity/internal/netsize"
	"antdensity/internal/results"
	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
	"antdensity/internal/stats"
	"antdensity/internal/topology"
)

var (
	e14Axes = []Axis{StringAxis("graph", []string{"torus3d", "ba", "er"}, nil)}
	e15Axes = []Axis{IntAxis("n", []int{10, 40, 160, 640}, nil).WithUnit("walkers")}
	e16Axes = []Axis{StringAxis("strategy", []string{"katzir", "multiround"}, nil)}
	e17Axes = []Axis{StringAxis("start", []string{"noburn", "fullburn", "stationary"}, nil)}
	e23Axes = []Axis{StringAxis("cfg", []string{"12x40", "16x80", "24x160"}, []string{"12x40", "16x80"})}
)

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "Network size estimation across graph families",
		Claim: "Theorem 27 / Lemma 28: E[C] = 1/|V| and concentration with n^2 t = Theta((B(t) deg + 1)|V|/(eps^2 delta))",
		Axes:  e14Axes,
		Columns: []results.Column{
			{Name: "num_nodes", Unit: "nodes"},
			{Name: "bias"},
			{Name: "rel_std"},
		},
		Cell: cellE14,
		Body: runE14,
	})
	register(Experiment{
		ID:    "E15",
		Title: "Average degree estimation by inverse-degree sampling",
		Claim: "Theorem 31: (1 +- eps) estimate of 1/degAvg with n = Theta(deg/(degmin eps^2 delta)) samples",
		Axes:  e15Axes,
		Columns: []results.Column{
			{Name: "mean_d", CI: true},
			{Name: "truth"},
			{Name: "rel_std"},
			{Name: "rel_std_sqrt_n"},
		},
		Cell: cellE15,
		Body: runE15,
	})
	register(Experiment{
		ID:    "E16",
		Title: "Link-query tradeoff: multi-round walks vs Katzir snapshot",
		Claim: "Section 5.1.5: increasing t cuts the walker count (and total queries) on slow-mixing graphs",
		Axes:  e16Axes,
		Columns: []results.Column{
			{Name: "walkers", Unit: "walkers"},
			{Name: "steps", Unit: "rounds"},
			{Name: "queries", Unit: "link queries"},
			{Name: "median_size", Unit: "nodes"},
			{Name: "mean_abs_rel_err"},
		},
		Cell: cellE16,
		Body: runE16,
	})
	register(Experiment{
		ID:    "E17",
		Title: "Burn-in necessity and sufficiency",
		Claim: "Section 5.1.4: M = O(log(|E|/delta)/(1-lambda)) steps make seed-started walks match stationary ones",
		Axes:  e17Axes,
		Columns: []results.Column{
			{Name: "burn_in", Unit: "steps"},
			{Name: "bias"},
		},
		Cell: cellE17,
		Body: runE17,
	})
	register(Experiment{
		ID:    "E23",
		Title: "Beyond encounter rate: cross-round path intersections",
		Claim: "Section 6.3.3: counting full-path intersections extracts more signal from the same link queries",
		Axes:  e23Axes,
		Columns: []results.Column{
			{Name: "walkers", Unit: "walkers"},
			{Name: "steps", Unit: "rounds"},
			{Name: "same_round_rmse"},
			{Name: "cross_round_rmse"},
			{Name: "gain"},
		},
		Cell: cellE23,
		Body: runE23,
	})
}

// e23Config parses an E23 "NxT" walker/steps configuration.
func e23Config(cfg string) (n, t int, err error) {
	ns, ts, ok := strings.Cut(cfg, "x")
	if !ok {
		return 0, 0, fmt.Errorf("E23: config %q must be <walkers>x<steps>", cfg)
	}
	n, err1 := strconv.Atoi(ns)
	t, err2 := strconv.Atoi(ts)
	if err1 != nil || err2 != nil || n < 1 || t < 1 {
		return 0, 0, fmt.Errorf("E23: config %q must be <walkers>x<steps> with positive ints", cfg)
	}
	return n, t, nil
}

// cellE23 runs one E23 walker/steps configuration and compares the
// same-round and cross-round RMSE of C.
func cellE23(p Params, pt Point) ([]results.Cell, error) {
	g := topology.MustTorus(3, 9) // 729 nodes, regular, non-bipartite
	trials := pick(p, 30, 12)
	truth := 1 / float64(g.NumNodes())
	n, t, err := e23Config(pt.String("cfg"))
	if err != nil {
		return nil, err
	}
	res, err := p.runTrials(TrialSpec{
		Name:   "E23",
		Trials: trials,
		Seed:   p.Seed + uint64(t)<<10,
		Run: func(tr Trial) (TrialResult, error) {
			var r TrialResult
			w1, err := netsize.NewWalkersStationary(g, n, tr.Stream.Split(0))
			if err != nil {
				return r, err
			}
			r1, err := w1.EstimateSize(t, 0)
			if err != nil {
				return r, err
			}
			r.Set("same", r1.C)
			w2, err := netsize.NewWalkersStationary(g, n, tr.Stream.Split(1))
			if err != nil {
				return r, err
			}
			r2, err := w2.CrossRoundEstimate(t, 0)
			if err != nil {
				return r, err
			}
			r.Set("cross", r2.C)
			return r, nil
		},
	})
	if err != nil {
		return nil, err
	}
	rs := rmseTo(res.ValueSlice("same"), truth)
	rc := rmseTo(res.ValueSlice("cross"), truth)
	return []results.Cell{
		results.Int(int64(n)),
		results.Int(int64(t)),
		results.Float(rs).WithN(trials),
		results.Float(rc).WithN(trials),
		results.Float(rs / rc),
	}, nil
}

// runE23 reports the gain of the last, largest configuration.
func runE23(p Params, rep *Report) error {
	gains := rep.Floats("gain")
	gain := gains[len(gains)-1]
	rep.SetMetric("gain", gain)
	rep.Notef("paper (Section 6.3.3, open question): storing full paths helps; measured RMSE gain %.2fx at equal query budgets", gain)
	return nil
}

// rmseTo returns the root-mean-squared error of xs against truth.
func rmseTo(xs []float64, truth float64) float64 {
	var se float64
	for _, x := range xs {
		d := x - truth
		se += d * d
	}
	return math.Sqrt(se / float64(len(xs)))
}

// sizeTrialStats runs repeated stationary-start size estimations in
// parallel and returns the mean C relative to 1/|V| and the relative
// std of C.
func sizeTrialStats(p Params, g topology.Graph, walkers, steps, trials int, seed uint64) (bias, relStd float64, err error) {
	res, err := p.runTrials(TrialSpec{
		Name:   "netsize",
		Trials: trials,
		Seed:   seed,
		Run: func(tr Trial) (TrialResult, error) {
			out, _, _, err := RunSpec(antdensity.NetworkSizeSpec(antdensity.WithGraph(g), antdensity.WithWalkers(walkers),
				antdensity.WithRounds(steps), antdensity.WithStationary(), antdensity.WithSeed(tr.Seed)))
			if err != nil {
				return TrialResult{}, err
			}
			return TrialResult{Samples: []float64{out.NetworkSize.C}}, nil
		},
	})
	if err != nil {
		return 0, 0, err
	}
	truth := 1 / float64(g.NumNodes())
	return res.Mean() / truth, res.StdDev() / truth, nil
}

// e14Graph builds the named E14 graph family. The Barabasi-Albert and
// Erdos-Renyi graphs draw sequentially from one seed-derived stream —
// the construction order is part of the reproducible state — so every
// family is built and the requested one returned.
func e14Graph(p Params, name string) (topology.Graph, error) {
	s := rng.New(p.Seed)
	ba, err := socialnet.BarabasiAlbert(int64(pick(p, 3000, 600)), 3, s)
	if err != nil {
		return nil, err
	}
	er, err := socialnet.ErdosRenyi(int64(pick(p, 2000, 500)), 0.004, s)
	if err != nil {
		return nil, err
	}
	switch name {
	case "torus3d":
		return topology.MustTorus(3, 11), nil
	case "ba":
		return ba, nil
	case "er":
		return socialnet.Connected(er), nil
	}
	return nil, fmt.Errorf("E14: unknown graph family %q", name)
}

// cellE14 runs the stationary size estimator on the named family.
func cellE14(p Params, pt Point) ([]results.Cell, error) {
	g, err := e14Graph(p, pt.String("graph"))
	if err != nil {
		return nil, err
	}
	trials, walkers, steps := e14Budget(p)
	bias, relStd, err := sizeTrialStats(p, g, walkers, steps, trials, p.Seed+uint64(g.NumNodes()))
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Int(g.NumNodes()),
		results.Float(bias),
		results.Float(relStd),
	}, nil
}

// e14Budget is E14's estimator budget.
func e14Budget(p Params) (trials, walkers, steps int) {
	return pick(p, 12, 4), pick(p, 60, 30), pick(p, 150, 50)
}

// runE14 records each family's bias and spread, then measures what no
// cell does: concentration improves with n^2 t, so quadrupling t on
// the 3-D torus should about halve the relative std.
func runE14(p Params, rep *Report) error {
	biases, relStds := rep.Floats("bias"), rep.Floats("rel_std")
	for i, name := range rep.Labels("graph") {
		rep.SetMetric("bias_"+name, biases[i])
		rep.SetMetric("relstd_"+name, relStds[i])
	}
	g0, err := e14Graph(p, "torus3d")
	if err != nil {
		return err
	}
	trials, walkers, steps := e14Budget(p)
	_, rs1, err := sizeTrialStats(p, g0, walkers, steps, trials, p.Seed+101)
	if err != nil {
		return err
	}
	_, rs4, err := sizeTrialStats(p, g0, walkers, 4*steps, trials, p.Seed+202)
	if err != nil {
		return err
	}
	rep.SetMetric("relstd_shrink", rs4/rs1)
	rep.Notef("paper: E[C] = 1/|V| exactly; measured bias above. Quadrupling t shrank rel std by factor %.2f (paper predicts ~0.5)", rs4/rs1)
	return nil
}

// cellE15 runs E15's inverse-degree sampling at one walker count.
func cellE15(p Params, pt Point) ([]results.Cell, error) {
	n := pt.Int("n")
	s := rng.New(p.Seed)
	g, err := socialnet.BarabasiAlbert(int64(pick(p, 5000, 1000)), 3, s)
	if err != nil {
		return nil, err
	}
	truth := 1 / socialnet.Degrees(g).Mean
	res, err := p.runTrials(TrialSpec{
		Name:   "E15",
		Trials: pick(p, 200, 50),
		Seed:   p.Seed + uint64(n)<<20,
		Run: func(tr Trial) (TrialResult, error) {
			w, err := netsize.NewWalkersStationary(g, n, tr.Stream)
			if err != nil {
				return TrialResult{}, err
			}
			return TrialResult{Samples: []float64{w.EstimateAvgDegree()}}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	relStd := res.StdDev() / truth
	return []results.Cell{
		results.FloatCI(res.Mean(), res.CI95(), len(res.Trials)),
		results.Float(truth),
		results.Float(relStd),
		results.Float(relStd * math.Sqrt(float64(n))),
	}, nil
}

func runE15(p Params, rep *Report) error {
	relStds := rep.Floats("rel_std")
	// 1/sqrt(n) scaling: the scaled column should be roughly flat.
	scaled := rep.Floats("rel_std_sqrt_n")
	spread := stats.Max(scaled) / stats.Min(scaled)
	rep.SetMetric("scaled_spread", spread)
	rep.SetMetric("final_rel_std", relStds[len(relStds)-1])
	rep.Notef("paper: error ~ 1/sqrt(n) (Chebyshev, Theorem 31); rel-std x sqrt(n) spread across n = %.2f (1 = perfect)", spread)
	return nil
}

// e16Setup builds E16's slow-mixing graph and its measured mixing
// parameters.
func e16Setup(p Params) (g topology.Graph, lambda float64, m int, err error) {
	// A slow-mixing graph where burn-in dominates cost: Watts-
	// Strogatz with tiny rewiring. Mixing is slow but finite;
	// lambda is measured, M derived per Section 5.1.4.
	s := rng.New(p.Seed)
	g, err = socialnet.WattsStrogatz(int64(pick(p, 4000, 800)), 3, 0.02, s)
	if err != nil {
		return nil, 0, 0, err
	}
	lambda = topology.SpectralGap(g, 500, s.Split(1))
	if lambda >= 1 {
		lambda = 1 - 1e-9
	}
	m = topology.MixingTime(topology.NumEdges(g), lambda, 0.1)
	return g, lambda, m, nil
}

// e16Budget returns the walker/step budget of an E16 strategy: the
// Katzir snapshot needs many walkers; the multi-round estimator trades
// walkers for steps at fixed n^2 t ~ budget.
func e16Budget(p Params, strategy string) (walkers, steps int, err error) {
	nK := pick(p, 120, 60)
	switch strategy {
	case "katzir":
		return nK, 0, nil
	case "multiround":
		return nK / 4, pick(p, 320, 120), nil // n^2 t comparable to nK^2 * 20
	}
	return 0, 0, fmt.Errorf("E16: unknown strategy %q", strategy)
}

// cellE16 runs one E16 strategy from burned-in seed-vertex walkers
// and reports its mean query bill, median size estimate, and mean
// relative error of C.
func cellE16(p Params, pt Point) ([]results.Cell, error) {
	strategy := pt.String("strategy")
	g, _, m, err := e16Setup(p)
	if err != nil {
		return nil, err
	}
	walkers, steps, err := e16Budget(p, strategy)
	if err != nil {
		return nil, err
	}
	trials := pick(p, 10, 4)
	truth := 1 / float64(g.NumNodes())
	res, err := p.runTrials(TrialSpec{
		Name:   "E16-" + strategy,
		Trials: trials,
		Seed:   p.Seed + uint64(len(strategy))<<32,
		Run: func(tr Trial) (TrialResult, error) {
			var r TrialResult
			w, err := netsize.NewWalkersAtSeed(g, walkers, 0, tr.Stream)
			if err != nil {
				return r, err
			}
			w.BurnIn(m)
			var c float64
			if steps == 0 {
				c = w.KatzirEstimate(0).C
			} else {
				est, err := w.EstimateSize(steps, 0)
				if err != nil {
					return r, err
				}
				c = est.C
			}
			r.Samples = []float64{c}
			r.Set("queries", float64(w.Queries()))
			return r, nil
		},
	})
	if err != nil {
		return nil, err
	}
	cs := res.Samples()
	medianSize := math.Inf(1)
	if med := stats.Median(cs); med > 0 {
		medianSize = 1 / med
	}
	return []results.Cell{
		results.Int(int64(walkers)),
		results.Int(int64(steps)),
		results.Float(res.MeanValue("queries")).WithN(trials),
		results.Float(medianSize),
		results.Float(stats.Mean(stats.RelErrors(cs, truth))).WithN(trials),
	}, nil
}

func runE16(p Params, rep *Report) error {
	_, lambda, m, err := e16Setup(p)
	if err != nil {
		return err
	}
	relErrs, queries := rep.Floats("mean_abs_rel_err"), rep.Floats("queries")
	for i, name := range rep.Labels("strategy") {
		rep.SetMetric("relerr_"+name, relErrs[i])
		rep.SetMetric("queries_"+name, queries[i])
	}
	rep.SetMetric("mixing_time", float64(m))
	rep.SetMetric("lambda", lambda)
	qMulti, _ := rep.Metric("queries_multiround")
	qKatzir, _ := rep.Metric("queries_katzir")
	queryRatio := qMulti / qKatzir
	rep.SetMetric("query_ratio", queryRatio)
	rep.Notef("paper: with burn-in M = %d (lambda = %.4f), running t rounds lets n shrink, cutting total queries; measured query ratio multiround/katzir = %.2f", m, lambda, queryRatio)
	return nil
}

// e17Setup builds E17's graph and mixing parameters.
func e17Setup(p Params) (g topology.Graph, m int, err error) {
	s := rng.New(p.Seed)
	g, err = socialnet.WattsStrogatz(int64(pick(p, 2000, 600)), 3, 0.05, s)
	if err != nil {
		return nil, 0, err
	}
	lambda := topology.SpectralGap(g, 500, s.Split(1))
	if lambda >= 1 {
		lambda = 1 - 1e-9
	}
	m = topology.MixingTime(topology.NumEdges(g), lambda, 0.1)
	return g, m, nil
}

// cellE17 runs one E17 start mode and reports the burn-in it used and
// its bias E[C]*|V|.
func cellE17(p Params, pt Point) ([]results.Cell, error) {
	start := pt.String("start")
	g, m, err := e17Setup(p)
	if err != nil {
		return nil, err
	}
	walkers := pick(p, 50, 25)
	steps := pick(p, 100, 40)
	var burn int
	var stationary bool
	var seedBase uint64
	switch start {
	case "noburn":
		burn, stationary, seedBase = 0, false, 10000
	case "fullburn":
		burn, stationary, seedBase = m, false, 20000
	case "stationary":
		burn, stationary, seedBase = 0, true, 30000
	default:
		return nil, fmt.Errorf("E17: unknown start mode %q", start)
	}
	res, err := p.runTrials(TrialSpec{
		Name:   "E17-" + start,
		Trials: pick(p, 12, 4),
		Seed:   p.Seed + seedBase,
		Run: func(tr Trial) (TrialResult, error) {
			var w *netsize.Walkers
			var err error
			if stationary {
				w, err = netsize.NewWalkersStationary(g, walkers, tr.Stream)
			} else {
				w, err = netsize.NewWalkersAtSeed(g, walkers, 0, tr.Stream)
			}
			if err != nil {
				return TrialResult{}, err
			}
			if !stationary {
				w.BurnIn(burn)
			}
			est, err := w.EstimateSize(steps, 0)
			if err != nil {
				return TrialResult{}, err
			}
			return TrialResult{Samples: []float64{est.C}}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	truth := 1 / float64(g.NumNodes())
	return []results.Cell{
		results.Int(int64(burn)),
		results.Float(res.Mean() / truth),
	}, nil
}

func runE17(p Params, rep *Report) error {
	_, m, err := e17Setup(p)
	if err != nil {
		return err
	}
	biases := rep.Floats("bias")
	for i, start := range rep.Labels("start") {
		rep.SetMetric("bias_"+start, biases[i])
	}
	rep.SetMetric("mixing_time", float64(m))
	rep.Notef("paper: without burn-in, clustered walkers over-collide (C inflated, size underestimated); after M = %d steps the bias matches stationary starts", m)
	return nil
}
