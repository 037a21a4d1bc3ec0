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

// e23Measure runs one E23 configuration and returns the same-round and
// cross-round RMSE of C.
func e23Measure(p Params, cfg string) (rs, rc float64, trials int, err error) {
	g := topology.MustTorus(3, 9) // 729 nodes, regular, non-bipartite
	trials = pick(p, 30, 12)
	truth := 1 / float64(g.NumNodes())
	n, t, err := e23Config(cfg)
	if err != nil {
		return 0, 0, 0, err
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
		return 0, 0, 0, err
	}
	rs = rmseTo(res.ValueSlice("same"), truth)
	rc = rmseTo(res.ValueSlice("cross"), truth)
	return rs, rc, trials, nil
}

func cellE23(p Params, pt Point) ([]results.Cell, error) {
	rs, rc, trials, err := e23Measure(p, pt.String("cfg"))
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Float(rs).WithN(trials),
		results.Float(rc).WithN(trials),
		results.Float(rs / rc),
	}, nil
}

func runE23(p Params, rep *Report) error {
	tb := rep.Table("walkers n", "steps t", "same-round RMSE of C", "cross-round RMSE of C", "gain")
	var lastGain float64
	if err := Grid(p, e23Axes, func(pt Point) error {
		cfg := pt.String("cfg")
		n, t, err := e23Config(cfg)
		if err != nil {
			return err
		}
		rs, rc, _, err := e23Measure(p, cfg)
		if err != nil {
			return err
		}
		gain := rs / rc
		tb.AddRow(n, t, rs, rc, gain)
		lastGain = gain
		return nil
	}); err != nil {
		return err
	}
	rep.SetMetric("gain", lastGain)
	rep.Notef("paper (Section 6.3.3, open question): storing full paths helps; measured RMSE gain %.2fx at equal query budgets", lastGain)
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

// e14Measure runs the stationary size estimator on the named family.
func e14Measure(p Params, name string) (g topology.Graph, bias, relStd float64, err error) {
	trials := pick(p, 12, 4)
	walkers := pick(p, 60, 30)
	steps := pick(p, 150, 50)
	g, err = e14Graph(p, name)
	if err != nil {
		return nil, 0, 0, err
	}
	bias, relStd, err = sizeTrialStats(p, g, walkers, steps, trials, p.Seed+uint64(g.NumNodes()))
	return g, bias, relStd, err
}

func cellE14(p Params, pt Point) ([]results.Cell, error) {
	g, bias, relStd, err := e14Measure(p, pt.String("graph"))
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Int(g.NumNodes()),
		results.Float(bias),
		results.Float(relStd),
	}, nil
}

func runE14(p Params, rep *Report) error {
	tb := rep.Table("graph", "|V|", "bias E[C]*|V|", "rel std of C")
	if err := Grid(p, e14Axes, func(pt Point) error {
		name := pt.String("graph")
		g, bias, relStd, err := e14Measure(p, name)
		if err != nil {
			return err
		}
		tb.AddRow(name, g.NumNodes(), bias, relStd)
		rep.SetMetric("bias_"+name, bias)
		rep.SetMetric("relstd_"+name, relStd)
		return nil
	}); err != nil {
		return err
	}
	// Concentration improves with n^2 t: quadruple t, expect relative
	// std to drop by about half.
	trials := pick(p, 12, 4)
	walkers := pick(p, 60, 30)
	steps := pick(p, 150, 50)
	g0, err := e14Graph(p, "torus3d")
	if err != nil {
		return err
	}
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

// e15Measure runs E15's inverse-degree sampling at one walker count.
func e15Measure(p Params, n int) (res *ExperimentResult, truth float64, err error) {
	s := rng.New(p.Seed)
	g, err := socialnet.BarabasiAlbert(int64(pick(p, 5000, 1000)), 3, s)
	if err != nil {
		return nil, 0, err
	}
	st := socialnet.Degrees(g)
	truth = 1 / st.Mean
	trials := pick(p, 200, 50)
	res, err = p.runTrials(TrialSpec{
		Name:   "E15",
		Trials: trials,
		Seed:   p.Seed + uint64(n)<<20,
		Run: func(tr Trial) (TrialResult, error) {
			w, err := netsize.NewWalkersStationary(g, n, tr.Stream)
			if err != nil {
				return TrialResult{}, err
			}
			return TrialResult{Samples: []float64{w.EstimateAvgDegree()}}, nil
		},
	})
	return res, truth, err
}

func cellE15(p Params, pt Point) ([]results.Cell, error) {
	n := pt.Int("n")
	res, truth, err := e15Measure(p, n)
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
	tb := rep.Table("samples n", "mean D", "truth 1/degAvg", "rel std", "rel std * sqrt(n)")
	var lastRelStd float64
	var scaled []float64
	if err := Grid(p, e15Axes, func(pt Point) error {
		n := pt.Int("n")
		res, truth, err := e15Measure(p, n)
		if err != nil {
			return err
		}
		relStd := res.StdDev() / truth
		tb.AddRow(n, res.Mean(), truth, relStd, relStd*math.Sqrt(float64(n)))
		lastRelStd = relStd
		scaled = append(scaled, relStd*math.Sqrt(float64(n)))
		return nil
	}); err != nil {
		return err
	}
	// 1/sqrt(n) scaling: the scaled column should be roughly flat.
	spread := stats.Max(scaled) / stats.Min(scaled)
	rep.SetMetric("scaled_spread", spread)
	rep.SetMetric("final_rel_std", lastRelStd)
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

// e16Measure runs one E16 strategy and returns its mean query bill,
// median size estimate, and mean relative error of C.
func e16Measure(p Params, strategy string) (meanQueries, medianSize, relErr float64, walkers, steps, trials int, err error) {
	g, _, m, err := e16Setup(p)
	if err != nil {
		return 0, 0, 0, 0, 0, 0, err
	}
	walkers, steps, err = e16Budget(p, strategy)
	if err != nil {
		return 0, 0, 0, 0, 0, 0, err
	}
	trials = pick(p, 10, 4)
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
		return 0, 0, 0, 0, 0, 0, err
	}
	cs := res.Samples()
	med := stats.Median(cs)
	medianSize = math.Inf(1)
	if med > 0 {
		medianSize = 1 / med
	}
	return res.MeanValue("queries"), medianSize, stats.Mean(stats.RelErrors(cs, truth)), walkers, steps, trials, nil
}

func cellE16(p Params, pt Point) ([]results.Cell, error) {
	queries, size, relErr, walkers, steps, trials, err := e16Measure(p, pt.String("strategy"))
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Int(int64(walkers)),
		results.Int(int64(steps)),
		results.Float(queries).WithN(trials),
		results.Float(size),
		results.Float(relErr).WithN(trials),
	}, nil
}

func runE16(p Params, rep *Report) error {
	_, lambda, m, err := e16Setup(p)
	if err != nil {
		return err
	}
	tb := rep.Table("strategy", "walkers n", "steps t", "queries n(M+t)", "median size", "mean |rel err| of C")
	if err := Grid(p, e16Axes, func(pt Point) error {
		name := pt.String("strategy")
		queries, size, relErr, walkers, steps, _, err := e16Measure(p, name)
		if err != nil {
			return err
		}
		tb.AddRow(name, walkers, steps, queries, size, relErr)
		rep.SetMetric("relerr_"+name, relErr)
		rep.SetMetric("queries_"+name, queries)
		return nil
	}); err != nil {
		return err
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

// e17Measure runs one E17 start mode and returns its bias E[C]*|V| and
// the burn-in it used.
func e17Measure(p Params, start string) (bias float64, burn int, err error) {
	g, m, err := e17Setup(p)
	if err != nil {
		return 0, 0, err
	}
	trials := pick(p, 12, 4)
	walkers := pick(p, 50, 25)
	steps := pick(p, 100, 40)
	truth := 1 / float64(g.NumNodes())
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
		return 0, 0, fmt.Errorf("E17: unknown start mode %q", start)
	}
	res, err := p.runTrials(TrialSpec{
		Name:   "E17-" + start,
		Trials: trials,
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
		return 0, 0, err
	}
	return res.Mean() / truth, burn, nil
}

func cellE17(p Params, pt Point) ([]results.Cell, error) {
	bias, burn, err := e17Measure(p, pt.String("start"))
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Int(int64(burn)),
		results.Float(bias),
	}, nil
}

func runE17(p Params, rep *Report) error {
	_, m, err := e17Setup(p)
	if err != nil {
		return err
	}
	tb := rep.Table("start", "burn-in", "bias E[C]*|V|")
	if err := Grid(p, e17Axes, func(pt Point) error {
		start := pt.String("start")
		bias, burn, err := e17Measure(p, start)
		if err != nil {
			return err
		}
		switch start {
		case "noburn":
			tb.AddRow("seed vertex", 0, bias)
		case "fullburn":
			tb.AddRow("seed vertex", burn, bias)
		case "stationary":
			tb.AddRow("stationary", "-", bias)
		}
		rep.SetMetric("bias_"+start, bias)
		return nil
	}); err != nil {
		return err
	}
	rep.SetMetric("mixing_time", float64(m))
	rep.Notef("paper: without burn-in, clustered walkers over-collide (C inflated, size underestimated); after M = %d steps the bias matches stationary starts", m)
	return nil
}
