package experiments

// The walk and theory experiments (E04–E11) measure random-walk
// quantities no Spec exposes — re-collision and equalization curves,
// collision-count moments, B(t) growth, spectral gaps — so they run on
// internal/walk, internal/topology and internal/core directly. Only
// E07's and E08's estimation rows run an estimator, and those go
// through algorithm1Trials' density Specs.

import (
	"fmt"
	"math"
	"strconv"

	"antdensity/internal/core"
	"antdensity/internal/results"
	"antdensity/internal/rng"
	"antdensity/internal/stats"
	"antdensity/internal/topology"
	"antdensity/internal/walk"
)

var (
	e04Axes = []Axis{IntAxis("m", []int{2, 4, 8, 16, 32, 64, 128, 256}, []int{2, 4, 8, 16, 32, 64}).WithUnit("steps")}
	e05Axes = []Axis{IntAxis("m", []int{2, 4, 8, 16, 32, 64, 128}, []int{2, 4, 8, 16, 32}).WithUnit("steps")}
	e06Axes = []Axis{IntAxis("steps", []int{256, 1024, 4096}, []int{128, 512}).WithUnit("rounds")}
	e07Axes = []Axis{IntAxis("steps", []int{100, 400, 1600, 6400}, []int{100, 400, 1600}).WithUnit("rounds")}
	e08Axes = []Axis{IntAxis("k", []int{3, 4}, nil).WithUnit("dims")}
	e09Axes = []Axis{IntRangeAxis("m", 20, 12).WithUnit("steps")}
	e10Axes = []Axis{IntRangeAxis("m", 40, 20).WithUnit("steps")}
	e11Axes = []Axis{StringAxis("topo", []string{"ring", "torus2d", "torus3d", "hypercube", "expander8"}, nil)}
)

func init() {
	register(Experiment{
		ID:    "E04",
		Title: "Re-collision probability decay on the 2-D torus",
		Claim: "Lemma 4: P[re-collision after m] = O(1/(m+1) + 1/A)",
		Axes:  e04Axes,
		Columns: []results.Column{
			{Name: "p_recollision"},
			{Name: "m_times_p"},
			{Name: "lemma4_bound"},
		},
		Cell: cellE04,
		Body: runE04,
	})
	register(Experiment{
		ID:    "E05",
		Title: "Equalization probability on the 2-D torus",
		Claim: "Corollary 10: Theta(1/(m+1)) + O(1/A) for even m, 0 for odd m",
		Axes:  e05Axes,
		Columns: []results.Column{
			{Name: "p_equalize"},
			{Name: "m_times_p"},
			{Name: "two_over_pi_m"},
		},
		Cell: cellE05,
		Body: runE05,
	})
	register(Experiment{
		ID:    "E06",
		Title: "Collision and equalization count moments",
		Claim: "Lemma 11 / Corollaries 15-16: Var(c_j) = O((t/A) log^2 2t), E[equalizations] = Theta(log t)",
		Axes:  e06Axes,
		Columns: []results.Column{
			{Name: "var_cj"},
			{Name: "lemma11_scale"},
			{Name: "ratio"},
			{Name: "mean_equalizations"},
			{Name: "log_2t"},
		},
		Cell: cellE06,
		Body: runE06,
	})
	register(Experiment{
		ID:    "E07",
		Title: "Ring: re-collision decay and estimation accuracy",
		Claim: "Lemma 20 (beta(m) ~ 1/sqrt(m)), Theorem 21 (error ~ t^(-1/4))",
		Axes:  e07Axes,
		Columns: []results.Column{
			{Name: "mean_abs_rel_err", CI: true},
			{Name: "thm21_shape"},
		},
		Cell: cellE07,
		Body: runE07,
	})
	register(Experiment{
		ID:    "E08",
		Title: "k-dimensional torus (k >= 3): local mixing matches sampling",
		Claim: "Lemma 22: beta(m) ~ 1/m^(k/2); B(t) = O(1); t = O(log(1/delta)/(d eps^2))",
		Axes:  e08Axes,
		Columns: []results.Column{
			{Name: "exponent"},
			{Name: "paper_exponent"},
			{Name: "bt_measured"},
			{Name: "bt_series"},
		},
		Cell: cellE08,
		Body: runE08,
	})
	register(Experiment{
		ID:    "E09",
		Title: "Regular expander: geometric re-collision decay",
		Claim: "Lemma 23: P[re-collision after m] <= lambda^m + 1/A",
		Axes:  e09Axes,
		Columns: []results.Column{
			{Name: "p_recollision"},
			{Name: "lemma23_bound"},
			{Name: "within_bound"},
		},
		Cell: cellE09,
		Body: runE09,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Hypercube: geometric re-collision decay to 1/sqrt(A) floor",
		Claim: "Lemma 25: P[re-collision after m] <= (9/10)^(m-1) + 1/sqrt(A)",
		Axes:  e10Axes,
		Columns: []results.Column{
			{Name: "p_recollision"},
			{Name: "lemma25_bound"},
			{Name: "within_bound"},
		},
		Cell: cellE10,
		Body: runE10,
	})
	register(Experiment{
		ID:    "E11",
		Title: "B(t) growth across topologies",
		Claim: "Section 4: B(t) = Theta(log t) on 2-D torus, Theta(sqrt t) on ring, O(1) for k>=3 tori, expanders, hypercubes",
		Axes:  e11Axes,
		Columns: []results.Column{
			{Name: "growth"},
			{Name: "growth_class"},
		},
		Cell: cellE11,
		Body: runE11,
	})
}

// mcBlocks is the fixed number of blocks a Monte Carlo walk
// measurement is split into for the trial runner. It is a constant —
// never derived from the worker count — so the block decomposition,
// and with it every measured curve, is identical however many workers
// execute it.
const mcBlocks = 16

// numBlocks returns how many blocks a trial budget splits into: the
// fixed mcBlocks, capped so no block is empty.
func numBlocks(trials int) int {
	if trials < mcBlocks {
		return trials
	}
	return mcBlocks
}

// blockSplit sizes block i of total trials split across numBlocks.
func blockSplit(trials, i int) int {
	blocks := numBlocks(trials)
	n := trials / blocks
	if i < trials%blocks {
		n++
	}
	return n
}

// mcCurve measures a Monte Carlo probability curve in parallel: the
// trial budget is split into fixed blocks, each block runs measure on
// its own substream, and the block curves are averaged element-wise
// weighted by block size.
func mcCurve(p Params, name string, trials int, seed uint64, measure func(trials int, s *rng.Stream) []float64) ([]float64, error) {
	res, err := p.runTrials(TrialSpec{
		Name:   name,
		Trials: numBlocks(trials),
		Seed:   seed,
		Run: func(tr Trial) (TrialResult, error) {
			n := blockSplit(trials, tr.Index)
			r := TrialResult{Samples: measure(n, tr.Stream)}
			r.SetWeight(float64(n))
			return r, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return res.MeanCurve(), nil
}

// mcSamples pools per-walk samples from a block-split Monte Carlo
// measurement in block order.
func mcSamples(p Params, name string, trials int, seed uint64, measure func(trials int, s *rng.Stream) []float64) ([]float64, error) {
	res, err := p.runTrials(TrialSpec{
		Name:   name,
		Trials: numBlocks(trials),
		Seed:   seed,
		Run: func(tr Trial) (TrialResult, error) {
			return TrialResult{Samples: measure(blockSplit(trials, tr.Index), tr.Stream)}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return res.Samples(), nil
}

// e04Curve measures E04's re-collision curve up to maxM.
func e04Curve(p Params, maxM int) ([]float64, int, error) {
	g := topology.MustTorus(2, 512)
	trials := pick(p, 200000, 20000)
	curve, err := mcCurve(p, "E04", trials, p.Seed, func(n int, s *rng.Stream) []float64 {
		return walk.RecollisionCurve(g, 0, maxM, n, s)
	})
	return curve, trials, err
}

func cellE04(p Params, pt Point) ([]results.Cell, error) {
	m := pt.Int("m")
	// One curve sized to the sweep's largest horizon serves every cell:
	// curve prefixes are draw-identical regardless of the measured
	// maximum (each trial's substream advances step by step).
	curve, err := sweepShared("E04", p,
		func(c []float64) bool { return len(c) > m },
		func() ([]float64, error) {
			c, _, err := e04Curve(p, activeMaxInt(pt, "m"))
			return c, err
		})
	if err != nil {
		return nil, err
	}
	trials := pick(p, 200000, 20000)
	return []results.Cell{
		results.Float(curve[m]).WithN(trials),
		results.Float(float64(m) * curve[m]),
		results.Float(1 / float64(m+1)),
	}, nil
}

func runE04(p Params, rep *Report) error {
	curve, _, err := e04Curve(p, axisMaxInt(p, e04Axes[0]))
	if err != nil {
		return err
	}
	tb := rep.Table("m", "P[re-collision]", "m * P", "Lemma4 1/(m+1)")
	var xs, ys []float64
	if err := Grid(p, e04Axes, func(pt Point) error {
		m := pt.Int("m")
		tb.AddRow(m, curve[m], float64(m)*curve[m], 1/float64(m+1))
		xs = append(xs, float64(m))
		ys = append(ys, curve[m])
		return nil
	}); err != nil {
		return err
	}
	alpha, _, r2 := stats.FitPowerLaw(xs, ys)
	rep.SetMetric("decay_exponent", alpha)
	rep.SetMetric("r2", r2)
	rep.Notef("paper: decay exponent -1 (Lemma 4); measured %.3f (R2 = %.3f)", alpha, r2)
	return nil
}

// e05Curve measures E05's equalization curve up to maxM.
func e05Curve(p Params, maxM int) ([]float64, int, error) {
	g := topology.MustTorus(2, 512)
	trials := pick(p, 300000, 30000)
	curve, err := mcCurve(p, "E05", trials, p.Seed, func(n int, s *rng.Stream) []float64 {
		return walk.EqualizationCurve(g, g.Node(11, 13), maxM, n, s)
	})
	return curve, trials, err
}

func cellE05(p Params, pt Point) ([]results.Cell, error) {
	m := pt.Int("m")
	curve, err := sweepShared("E05", p,
		func(c []float64) bool { return len(c) > m },
		func() ([]float64, error) {
			c, _, err := e05Curve(p, activeMaxInt(pt, "m"))
			return c, err
		})
	if err != nil {
		return nil, err
	}
	trials := pick(p, 300000, 30000)
	return []results.Cell{
		results.Float(curve[m]).WithN(trials),
		results.Float(float64(m) * curve[m]),
		results.Float(2 / (math.Pi * float64(m))),
	}, nil
}

func runE05(p Params, rep *Report) error {
	maxM := axisMaxInt(p, e05Axes[0])
	curve, _, err := e05Curve(p, maxM)
	if err != nil {
		return err
	}
	tb := rep.Table("m", "P[equalize]", "m * P", "2/(pi m)")
	var xs, ys []float64
	oddMass := 0.0
	for m := 1; m <= maxM; m++ {
		if m%2 == 1 {
			oddMass += curve[m]
			continue
		}
		xs = append(xs, float64(m))
		ys = append(ys, curve[m])
	}
	// The table shows powers of two only — the declared axis points.
	if err := Grid(p, e05Axes, func(pt Point) error {
		m := pt.Int("m")
		tb.AddRow(m, curve[m], float64(m)*curve[m], 2/(math.Pi*float64(m)))
		return nil
	}); err != nil {
		return err
	}
	alpha, _, r2 := stats.FitPowerLaw(xs, ys)
	rep.SetMetric("decay_exponent", alpha)
	rep.SetMetric("r2", r2)
	rep.SetMetric("odd_mass", oddMass)
	rep.Notef("paper: Theta(1/(m+1)) for even m, exactly 0 for odd m; measured exponent %.3f, total odd-step mass %.6f", alpha, oddMass)
	return nil
}

// e06Measure runs E06's grid cell at one horizon; ci is the horizon's
// position in the active axis list (the historical seed offset).
func e06Measure(p Params, t, ci int) (varCJ, scale, eqMean float64, err error) {
	g := topology.MustTorus(2, 64) // A = 4096
	trials := pick(p, 40000, 5000)
	pair, err := mcSamples(p, "E06-pair", trials, p.Seed+uint64(ci), func(n int, s *rng.Stream) []float64 {
		return walk.PairCollisionCounts(g, t, n, s)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	varCJ = stats.Variance(pair)
	scale = float64(t) / float64(g.NumNodes()) * math.Pow(math.Log(2*float64(t)), 2)
	eq, err := mcSamples(p, "E06-eq", trials/2, p.Seed+uint64(100+ci), func(n int, s *rng.Stream) []float64 {
		return walk.EqualizationCounts(g, t, n, s)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return varCJ, scale, stats.Mean(eq), nil
}

func cellE06(p Params, pt Point) ([]results.Cell, error) {
	t := pt.Int("steps")
	varCJ, scale, eqMean, err := e06Measure(p, t, pt.Index("steps"))
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Float(varCJ),
		results.Float(scale),
		results.Float(varCJ / scale),
		results.Float(eqMean),
		results.Float(math.Log(2 * float64(t))),
	}, nil
}

func runE06(p Params, rep *Report) error {
	tb := rep.Table("t", "Var(c_j)", "(t/A) log^2 2t", "ratio", "E[equalizations]", "log 2t")
	var ratios []float64
	var eqMeans, eqLogs []float64
	if err := Grid(p, e06Axes, func(pt Point) error {
		t := pt.Int("steps")
		v, scale, eqMean, err := e06Measure(p, t, pt.Index("steps"))
		if err != nil {
			return err
		}
		tb.AddRow(t, v, scale, v/scale, eqMean, math.Log(2*float64(t)))
		ratios = append(ratios, v/scale)
		eqMeans = append(eqMeans, eqMean)
		eqLogs = append(eqLogs, math.Log(2*float64(t)))
		return nil
	}); err != nil {
		return err
	}
	rep.SetMetric("max_var_ratio", stats.Max(ratios))
	// E[equalizations] should grow linearly in log t: fit against log.
	fit := stats.FitLine(eqLogs, eqMeans)
	rep.SetMetric("equalization_log_slope", fit.Slope)
	rep.Notef("paper: Var(c_j) within constant x (t/A) log^2 2t (Lemma 11, k=2); measured max ratio %.3f", stats.Max(ratios))
	rep.Notef("paper: E[equalizations] = Theta(log t) (Cor. 10/16); measured linear-in-log slope %.3f", fit.Slope)
	return nil
}

// e07Estimate runs E07's estimation cell: Algorithm 1 on the
// 1000-node ring at one horizon; callers derive errors from the
// result's samples and the returned true density.
func e07Estimate(p Params, t int) (res *ExperimentResult, d float64, err error) {
	ringSmall, err := topology.NewRing(1000)
	if err != nil {
		return nil, 0, err
	}
	const agents = 101 // d = 0.1
	trials := pick(p, 6, 2)
	res, err = algorithm1Trials(p, ringSmall, agents, t, trials, p.Seed+uint64(t))
	if err != nil {
		return nil, 0, err
	}
	return res, res.Value("density"), nil
}

func cellE07(p Params, pt Point) ([]results.Cell, error) {
	t := pt.Int("steps")
	res, d, err := e07Estimate(p, t)
	if err != nil {
		return nil, err
	}
	errs := stats.RelErrors(res.Samples(), d)
	return []results.Cell{
		results.FloatCI(stats.Mean(errs), relErrCI95(res, d), len(res.Trials)),
		results.Float(math.Pow(float64(t), -0.25)),
	}, nil
}

func runE07(p Params, rep *Report) error {
	ringBig, err := topology.NewRing(1 << 20)
	if err != nil {
		return err
	}
	trials := pick(p, 120000, 15000)
	maxM := pick(p, 256, 64)
	curve, err := mcCurve(p, "E07", trials, p.Seed, func(n int, s *rng.Stream) []float64 {
		return walk.RecollisionCurve(ringBig, 0, maxM, n, s)
	})
	if err != nil {
		return err
	}
	var xs, ys []float64
	for m := 2; m <= maxM; m += 2 {
		xs = append(xs, float64(m))
		ys = append(ys, curve[m])
	}
	alpha, _, r2 := stats.FitPowerLaw(xs, ys)

	// Density estimation error scaling on a ring: Theorem 21 predicts
	// error ~ t^(-1/4).
	tb := rep.Table("rounds t", "mean |rel err|", "Thm21 shape t^(-1/4)")
	var exs, eys []float64
	if err := Grid(p, e07Axes, func(pt Point) error {
		t := pt.Int("steps")
		res, d, err := e07Estimate(p, t)
		if err != nil {
			return err
		}
		mean := stats.Mean(stats.RelErrors(res.Samples(), d))
		tb.AddRow(t, mean, math.Pow(float64(t), -0.25))
		exs = append(exs, float64(t))
		eys = append(eys, mean)
		return nil
	}); err != nil {
		return err
	}
	estAlpha, _, _ := stats.FitPowerLaw(exs, eys)
	rep.SetMetric("recollision_exponent", alpha)
	rep.SetMetric("recollision_r2", r2)
	rep.SetMetric("error_exponent", estAlpha)
	rep.Notef("paper: ring re-collision exponent -1/2 (Lemma 20); measured %.3f (R2 = %.3f)", alpha, r2)
	rep.Notef("paper: ring estimation error exponent -1/4 (Theorem 21); measured %.3f", estAlpha)
	return nil
}

// e08Measure fits the re-collision decay exponent and measures B(maxM)
// on the k-dimensional torus.
func e08Measure(p Params, k int) (alpha, bt float64, maxM int, err error) {
	trials := pick(p, 150000, 15000)
	maxM = pick(p, 64, 32)
	side := int64(64)
	if k == 4 {
		side = 32
	}
	g := topology.MustTorus(k, side)
	curve, err := mcCurve(p, "E08", trials, p.Seed+uint64(k), func(n int, s *rng.Stream) []float64 {
		return walk.RecollisionCurve(g, 0, maxM, n, s)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var xs, ys []float64
	for m := 2; m <= maxM; m += 2 {
		if curve[m] > 0 {
			xs = append(xs, float64(m))
			ys = append(ys, curve[m])
		}
	}
	alpha, _, _ = stats.FitPowerLaw(xs, ys)
	bt = walk.SumCurve(curve)[maxM]
	return alpha, bt, maxM, nil
}

func cellE08(p Params, pt Point) ([]results.Cell, error) {
	k := pt.Int("k")
	alpha, bt, maxM, err := e08Measure(p, k)
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Float(alpha),
		results.Float(-float64(k) / 2),
		results.Float(bt),
		results.Float(core.BTorusK(maxM, k)),
	}, nil
}

func runE08(p Params, rep *Report) error {
	tb := rep.Table("k", "measured exponent", "paper -k/2", "B(64) measured", "B(64) series")
	if err := Grid(p, e08Axes, func(pt Point) error {
		k := pt.Int("k")
		alpha, bt, maxM, err := e08Measure(p, k)
		if err != nil {
			return err
		}
		tb.AddRow(k, alpha, -float64(k)/2, bt, core.BTorusK(maxM, k))
		rep.SetMetric(metricName("exponent_k", k), alpha)
		rep.SetMetric(metricName("bt_k", k), bt)
		return nil
	}); err != nil {
		return err
	}
	// Estimation accuracy on the 3-D torus matches the complete graph
	// (sampling-optimal): compare mean errors at equal (t, d).
	g3 := topology.MustTorus(3, 12) // A = 1728
	complete := topology.MustComplete(g3.NumNodes())
	const agents = 174 // d ~ 0.1
	t := pick(p, 1500, 300)
	estTrials := pick(p, 6, 2)
	errs3, _, err := algorithm1Errors(p, g3, agents, t, estTrials, p.Seed+11)
	if err != nil {
		return err
	}
	errsC, _, err := algorithm1Errors(p, complete, agents, t, estTrials, p.Seed+12)
	if err != nil {
		return err
	}
	ratio := stats.Mean(errs3) / stats.Mean(errsC)
	rep.SetMetric("torus3d_over_complete", ratio)
	rep.Notef("paper: k>=3 torus matches independent sampling up to constants; measured error ratio vs complete graph = %.2f", ratio)
	return nil
}

func metricName(prefix string, k int) string {
	return prefix + strconv.Itoa(k)
}

// e09Setup builds E09's expander and measures its spectral gap and
// re-collision curve up to maxM.
func e09Setup(p Params, maxM int) (curve []float64, lambda float64, n int64, trials int, err error) {
	s := rng.New(p.Seed)
	n = int64(pick(p, 20000, 2000))
	g, err := topology.NewRandomRegular(n, 8, s)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	lambda = topology.SpectralGap(g, 300, s.Split(1))
	trials = pick(p, 200000, 20000)
	curve, err = mcCurve(p, "E09", trials, p.Seed+2, func(n int, s *rng.Stream) []float64 {
		return walk.RecollisionCurve(g, 0, maxM, n, s)
	})
	return curve, lambda, n, trials, err
}

// e09Shared is the sweep-wide shared state of E09's cells.
type e09Shared struct {
	curve  []float64
	lambda float64
	n      int64
	trials int
}

func cellE09(p Params, pt Point) ([]results.Cell, error) {
	m := pt.Int("m")
	sh, err := sweepShared("E09", p,
		func(s e09Shared) bool { return len(s.curve) > m },
		func() (e09Shared, error) {
			curve, lambda, n, trials, err := e09Setup(p, activeMaxInt(pt, "m"))
			return e09Shared{curve: curve, lambda: lambda, n: n, trials: trials}, err
		})
	if err != nil {
		return nil, err
	}
	curve, lambda, n, trials := sh.curve, sh.lambda, sh.n, sh.trials
	bound := math.Pow(lambda, float64(m)) + 1/float64(n)
	slack := 3*math.Sqrt(bound/float64(trials)) + 1e-4
	return []results.Cell{
		results.Float(curve[m]).WithN(trials),
		results.Float(bound),
		results.Bool(curve[m] <= bound+slack),
	}, nil
}

func runE09(p Params, rep *Report) error {
	curve, lambda, n, trials, err := e09Setup(p, axisMaxInt(p, e09Axes[0]))
	if err != nil {
		return err
	}
	tb := rep.Table("m", "P[re-collision]", "lambda^m + 1/A", "within bound")
	violations := 0
	if err := Grid(p, e09Axes, func(pt Point) error {
		m := pt.Int("m")
		bound := math.Pow(lambda, float64(m)) + 1/float64(n)
		slack := 3*math.Sqrt(bound/float64(trials)) + 1e-4
		ok := curve[m] <= bound+slack
		if !ok {
			violations++
		}
		tb.AddRow(m, curve[m], bound, ok)
		return nil
	}); err != nil {
		return err
	}
	rep.SetMetric("lambda", lambda)
	rep.SetMetric("violations", float64(violations))
	rep.Notef("paper: P <= lambda^m + 1/A with measured lambda = %.3f (Lemma 23); bound violations: %d", lambda, violations)
	return nil
}

// e10Setup measures E10's hypercube re-collision curve up to maxM.
func e10Setup(p Params, maxM int) (curve []float64, floor float64, trials int, err error) {
	bits := pick(p, 16, 12)
	h := topology.MustHypercube(bits)
	trials = pick(p, 200000, 20000)
	curve, err = mcCurve(p, "E10", trials, p.Seed, func(n int, s *rng.Stream) []float64 {
		return walk.RecollisionCurve(h, 0, maxM, n, s)
	})
	floor = 1 / math.Sqrt(float64(h.NumNodes()))
	return curve, floor, trials, err
}

// e10Shared is the sweep-wide shared state of E10's cells.
type e10Shared struct {
	curve  []float64
	floor  float64
	trials int
}

func cellE10(p Params, pt Point) ([]results.Cell, error) {
	m := pt.Int("m")
	sh, err := sweepShared("E10", p,
		func(s e10Shared) bool { return len(s.curve) > m },
		func() (e10Shared, error) {
			curve, floor, trials, err := e10Setup(p, activeMaxInt(pt, "m"))
			return e10Shared{curve: curve, floor: floor, trials: trials}, err
		})
	if err != nil {
		return nil, err
	}
	curve, floor, trials := sh.curve, sh.floor, sh.trials
	bound := math.Pow(0.9, float64(m-1)) + floor
	slack := 3*math.Sqrt(bound/float64(trials)) + 1e-4
	return []results.Cell{
		results.Float(curve[m]).WithN(trials),
		results.Float(bound),
		results.Bool(curve[m] <= bound+slack),
	}, nil
}

func runE10(p Params, rep *Report) error {
	curve, floor, trials, err := e10Setup(p, axisMaxInt(p, e10Axes[0]))
	if err != nil {
		return err
	}
	tb := rep.Table("m", "P[re-collision]", "(9/10)^(m-1) + 1/sqrt(A)", "within bound")
	violations := 0
	if err := Grid(p, e10Axes, func(pt Point) error {
		m := pt.Int("m")
		bound := math.Pow(0.9, float64(m-1)) + floor
		slack := 3*math.Sqrt(bound/float64(trials)) + 1e-4
		ok := curve[m] <= bound+slack
		if !ok {
			violations++
		}
		if m <= 8 || m%4 == 0 {
			tb.AddRow(m, curve[m], bound, ok)
		}
		return nil
	}); err != nil {
		return err
	}
	rep.SetMetric("violations", float64(violations))
	rep.SetMetric("floor", floor)
	rep.Notef("paper: geometric decay to the 1/sqrt(A) floor (Lemma 25); bound violations: %d", violations)
	return nil
}

// e11Graph builds the named E11 topology, reproducibly per seed.
func e11Graph(p Params, name string) (topology.Graph, error) {
	s := rng.New(p.Seed)
	switch name {
	case "ring":
		return topology.NewRing(1 << 20)
	case "torus2d":
		return topology.MustTorus(2, 2048), nil
	case "torus3d":
		return topology.MustTorus(3, 101), nil
	case "hypercube":
		return topology.MustHypercube(16), nil
	case "expander8":
		return topology.NewRandomRegular(int64(pick(p, 20000, 2000)), 8, s.Split(77))
	}
	return nil, fmt.Errorf("E11: unknown topology %q", name)
}

// e11Checkpoints are the B(t) sampling points for the mode.
func e11Checkpoints(p Params) []int {
	if p.Quick {
		return []int{64, 256, 512}
	}
	return []int{64, 256, 1024, 4096}
}

// e11Bt measures the named topology's B(t) prefix sums; ci is the
// topology's position in the active axis list (the historical seed
// offset).
func e11Bt(p Params, name string, ci int) ([]float64, error) {
	trials := pick(p, 100000, 10000)
	maxM := pick(p, 4096, 512)
	g, err := e11Graph(p, name)
	if err != nil {
		return nil, err
	}
	curve, err := mcCurve(p, "E11-"+name, trials, p.Seed+uint64(ci), func(n int, s *rng.Stream) []float64 {
		return walk.RecollisionCurve(g, 0, maxM, n, s)
	})
	if err != nil {
		return nil, err
	}
	return walk.SumCurve(curve), nil
}

// e11Growth classifies B(t)'s growth between the first and last
// checkpoints.
func e11Growth(bt []float64, checkpoints []int) (growth float64, class string) {
	last := len(checkpoints) - 1
	growth = bt[checkpoints[last]] / bt[checkpoints[0]]
	class = "O(1)"
	switch {
	case growth > 4:
		class = "sqrt(t)-like"
	case growth > 1.5:
		class = "log(t)-like"
	}
	return growth, class
}

func cellE11(p Params, pt Point) ([]results.Cell, error) {
	bt, err := e11Bt(p, pt.String("topo"), pt.Index("topo"))
	if err != nil {
		return nil, err
	}
	growth, class := e11Growth(bt, e11Checkpoints(p))
	return []results.Cell{
		results.Float(growth),
		results.String(class),
	}, nil
}

func runE11(p Params, rep *Report) error {
	checkpoints := e11Checkpoints(p)
	tbHeaders := []string{"topology"}
	for _, c := range checkpoints {
		tbHeaders = append(tbHeaders, "B("+strconv.Itoa(c)+")")
	}
	tbHeaders = append(tbHeaders, "growth class")
	tb := rep.Table(tbHeaders...)
	if err := Grid(p, e11Axes, func(pt Point) error {
		name := pt.String("topo")
		bt, err := e11Bt(p, name, pt.Index("topo"))
		if err != nil {
			return err
		}
		row := []any{name}
		for _, c := range checkpoints {
			row = append(row, bt[c])
		}
		growth, class := e11Growth(bt, checkpoints)
		row = append(row, class)
		tb.AddRow(row...)
		rep.SetMetric("growth_"+name, growth)
		return nil
	}); err != nil {
		return err
	}
	rep.Notef("paper: B(t) grows like sqrt(t) on the ring, log t on the 2-D torus, O(1) on k>=3 tori / expanders / hypercubes")
	return nil
}
