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
	e11Axes = []Axis{
		StringAxis("topo", []string{"ring", "torus2d", "torus3d", "hypercube", "expander8"}, nil),
		IntAxis("t", []int{64, 256, 1024, 4096}, []int{64, 256, 512}).WithUnit("rounds"),
	}
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
			{Name: "bt"},
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

// cellE04 reads P[re-collision after m] off one curve sized to the
// sweep's largest horizon, which serves every cell: curve prefixes are
// draw-identical regardless of the measured maximum (each trial's
// substream advances step by step).
func cellE04(p Params, pt Point) ([]results.Cell, error) {
	m := pt.Int("m")
	trials := pick(p, 200000, 20000)
	curve, err := sweepShared("E04", p,
		func(c []float64) bool { return len(c) > m },
		func() ([]float64, error) {
			g := topology.MustTorus(2, 512)
			maxM := activeMaxInt(pt, "m")
			return mcCurve(p, "E04", trials, p.Seed, func(n int, s *rng.Stream) []float64 {
				return walk.RecollisionCurve(g, 0, maxM, n, s)
			})
		})
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Float(curve[m]).WithN(trials),
		results.Float(float64(m) * curve[m]),
		results.Float(1 / float64(m+1)),
	}, nil
}

func runE04(p Params, rep *Report) error {
	alpha, _, r2 := stats.FitPowerLaw(rep.Floats("m"), rep.Floats("p_recollision"))
	rep.SetMetric("decay_exponent", alpha)
	rep.SetMetric("r2", r2)
	rep.Notef("paper: decay exponent -1 (Lemma 4); measured %.3f (R2 = %.3f)", alpha, r2)
	return nil
}

// e05Trials is E05's walk budget.
func e05Trials(p Params) int { return pick(p, 300000, 30000) }

// e05Curve returns E05's equalization curve, shared by every cell of a
// sweep and by the body: one covering step m, measured through step
// maxM on a miss.
func e05Curve(p Params, m, maxM int) ([]float64, error) {
	return sweepShared("E05", p,
		func(c []float64) bool { return len(c) > m },
		func() ([]float64, error) {
			g := topology.MustTorus(2, 512)
			return mcCurve(p, "E05", e05Trials(p), p.Seed, func(n int, s *rng.Stream) []float64 {
				return walk.EqualizationCurve(g, g.Node(11, 13), maxM, n, s)
			})
		})
}

func cellE05(p Params, pt Point) ([]results.Cell, error) {
	m := pt.Int("m")
	curve, err := e05Curve(p, m, activeMaxInt(pt, "m"))
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Float(curve[m]).WithN(e05Trials(p)),
		results.Float(float64(m) * curve[m]),
		results.Float(2 / (math.Pi * float64(m))),
	}, nil
}

// runE05 fits every even step of the cells' shared curve, not only
// the table's powers of two, and sums its odd steps.
func runE05(p Params, rep *Report) error {
	maxM := int(stats.Max(rep.Floats("m")))
	curve, err := e05Curve(p, maxM, maxM)
	if err != nil {
		return err
	}
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
	alpha, _, r2 := stats.FitPowerLaw(xs, ys)
	rep.SetMetric("decay_exponent", alpha)
	rep.SetMetric("r2", r2)
	rep.SetMetric("odd_mass", oddMass)
	rep.Notef("paper: Theta(1/(m+1)) for even m, exactly 0 for odd m; measured exponent %.3f, total odd-step mass %.6f", alpha, oddMass)
	return nil
}

// cellE06 measures E06's collision and equalization counts at one
// horizon, seeded by its position in the registered axis list (the
// historical seed offset).
func cellE06(p Params, pt Point) ([]results.Cell, error) {
	t, ci := pt.Int("steps"), pt.Index("steps")
	g := topology.MustTorus(2, 64) // A = 4096
	trials := pick(p, 40000, 5000)
	pair, err := mcSamples(p, "E06-pair", trials, p.Seed+uint64(ci), func(n int, s *rng.Stream) []float64 {
		return walk.PairCollisionCounts(g, t, n, s)
	})
	if err != nil {
		return nil, err
	}
	eq, err := mcSamples(p, "E06-eq", trials/2, p.Seed+uint64(100+ci), func(n int, s *rng.Stream) []float64 {
		return walk.EqualizationCounts(g, t, n, s)
	})
	if err != nil {
		return nil, err
	}
	varCJ := stats.Variance(pair)
	scale := float64(t) / float64(g.NumNodes()) * math.Pow(math.Log(2*float64(t)), 2)
	return []results.Cell{
		results.Float(varCJ),
		results.Float(scale),
		results.Float(varCJ / scale),
		results.Float(stats.Mean(eq)),
		results.Float(math.Log(2 * float64(t))),
	}, nil
}

func runE06(p Params, rep *Report) error {
	maxRatio := stats.Max(rep.Floats("ratio"))
	rep.SetMetric("max_var_ratio", maxRatio)
	// E[equalizations] should grow linearly in log t: fit against log.
	fit := stats.FitLine(rep.Floats("log_2t"), rep.Floats("mean_equalizations"))
	rep.SetMetric("equalization_log_slope", fit.Slope)
	rep.Notef("paper: Var(c_j) within constant x (t/A) log^2 2t (Lemma 11, k=2); measured max ratio %.3f", maxRatio)
	rep.Notef("paper: E[equalizations] = Theta(log t) (Cor. 10/16); measured linear-in-log slope %.3f", fit.Slope)
	return nil
}

// cellE07 runs Algorithm 1 on the 1000-node ring at one horizon.
func cellE07(p Params, pt Point) ([]results.Cell, error) {
	t := pt.Int("steps")
	ringSmall, err := topology.NewRing(1000)
	if err != nil {
		return nil, err
	}
	const agents = 101 // d = 0.1
	res, err := algorithm1Trials(p, ringSmall, agents, t, pick(p, 6, 2), p.Seed+uint64(t))
	if err != nil {
		return nil, err
	}
	d := res.Value("density")
	errs := stats.RelErrors(res.Samples(), d)
	return []results.Cell{
		results.FloatCI(stats.Mean(errs), relErrCI95(res, d), len(res.Trials)),
		results.Float(math.Pow(float64(t), -0.25)),
	}, nil
}

// runE07 measures the ring's re-collision curve, which no cell does,
// and fits the cells' estimation errors, which Theorem 21 predicts
// fall like t^(-1/4).
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
	estAlpha, _, _ := stats.FitPowerLaw(rep.Floats("steps"), rep.Floats("mean_abs_rel_err"))
	rep.SetMetric("recollision_exponent", alpha)
	rep.SetMetric("recollision_r2", r2)
	rep.SetMetric("error_exponent", estAlpha)
	rep.Notef("paper: ring re-collision exponent -1/2 (Lemma 20); measured %.3f (R2 = %.3f)", alpha, r2)
	rep.Notef("paper: ring estimation error exponent -1/4 (Theorem 21); measured %.3f", estAlpha)
	return nil
}

// cellE08 fits the re-collision decay exponent and measures B(maxM)
// on the k-dimensional torus.
func cellE08(p Params, pt Point) ([]results.Cell, error) {
	k := pt.Int("k")
	trials := pick(p, 150000, 15000)
	maxM := pick(p, 64, 32)
	side := int64(64)
	if k == 4 {
		side = 32
	}
	g := topology.MustTorus(k, side)
	curve, err := mcCurve(p, "E08", trials, p.Seed+uint64(k), func(n int, s *rng.Stream) []float64 {
		return walk.RecollisionCurve(g, 0, maxM, n, s)
	})
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for m := 2; m <= maxM; m += 2 {
		if curve[m] > 0 {
			xs = append(xs, float64(m))
			ys = append(ys, curve[m])
		}
	}
	alpha, _, _ := stats.FitPowerLaw(xs, ys)
	return []results.Cell{
		results.Float(alpha),
		results.Float(-float64(k) / 2),
		results.Float(walk.SumCurve(curve)[maxM]),
		results.Float(core.BTorusK(maxM, k)),
	}, nil
}

// runE08 records the cells' exponents and B(t) per k, then compares
// estimation accuracy on the 3-D torus with the complete graph
// (sampling-optimal) at equal (t, d), which no cell measures.
func runE08(p Params, rep *Report) error {
	alphas, bts := rep.Floats("exponent"), rep.Floats("bt_measured")
	for i, k := range rep.Labels("k") {
		rep.SetMetric("exponent_k"+k, alphas[i])
		rep.SetMetric("bt_k"+k, bts[i])
	}
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

// e09Walk is E09's sweep-shared measurement: the expander's spectral
// gap and its re-collision curve.
type e09Walk struct {
	curve  []float64
	lambda float64
}

// e09Expander returns E09's shared measurement, shared by every cell
// of a sweep and by the body: one whose curve covers step m, measured
// through step maxM on a miss.
func e09Expander(p Params, m, maxM int) (e09Walk, error) {
	return sweepShared("E09", p,
		func(w e09Walk) bool { return len(w.curve) > m },
		func() (e09Walk, error) {
			s := rng.New(p.Seed)
			g, err := topology.NewRandomRegular(e09Nodes(p), 8, s)
			if err != nil {
				return e09Walk{}, err
			}
			lambda := topology.SpectralGap(g, 300, s.Split(1))
			curve, err := mcCurve(p, "E09", e09Trials(p), p.Seed+2, func(n int, s *rng.Stream) []float64 {
				return walk.RecollisionCurve(g, 0, maxM, n, s)
			})
			return e09Walk{curve: curve, lambda: lambda}, err
		})
}

// e09Nodes and e09Trials size E09's expander and walk budget.
func e09Nodes(p Params) int64 { return int64(pick(p, 20000, 2000)) }
func e09Trials(p Params) int  { return pick(p, 200000, 20000) }

func cellE09(p Params, pt Point) ([]results.Cell, error) {
	m := pt.Int("m")
	w, err := e09Expander(p, m, activeMaxInt(pt, "m"))
	if err != nil {
		return nil, err
	}
	bound := math.Pow(w.lambda, float64(m)) + 1/float64(e09Nodes(p))
	slack := 3*math.Sqrt(bound/float64(e09Trials(p))) + 1e-4
	return []results.Cell{
		results.Float(w.curve[m]).WithN(e09Trials(p)),
		results.Float(bound),
		results.Bool(w.curve[m] <= bound+slack),
	}, nil
}

func runE09(p Params, rep *Report) error {
	maxM := int(stats.Max(rep.Floats("m")))
	w, err := e09Expander(p, maxM, maxM)
	if err != nil {
		return err
	}
	violations := countFalse(rep.Labels("within_bound"))
	rep.SetMetric("lambda", w.lambda)
	rep.SetMetric("violations", float64(violations))
	rep.Notef("paper: P <= lambda^m + 1/A with measured lambda = %.3f (Lemma 23); bound violations: %d", w.lambda, violations)
	return nil
}

// countFalse counts the "false" cells of a bool column.
func countFalse(labels []string) int {
	n := 0
	for _, l := range labels {
		if l == "false" {
			n++
		}
	}
	return n
}

// e10Floor is Lemma 25's 1/sqrt(A) floor on E10's hypercube.
func e10Floor(p Params) float64 {
	return 1 / math.Sqrt(float64(topology.MustHypercube(pick(p, 16, 12)).NumNodes()))
}

func cellE10(p Params, pt Point) ([]results.Cell, error) {
	m := pt.Int("m")
	trials := pick(p, 200000, 20000)
	curve, err := sweepShared("E10", p,
		func(c []float64) bool { return len(c) > m },
		func() ([]float64, error) {
			h := topology.MustHypercube(pick(p, 16, 12))
			maxM := activeMaxInt(pt, "m")
			return mcCurve(p, "E10", trials, p.Seed, func(n int, s *rng.Stream) []float64 {
				return walk.RecollisionCurve(h, 0, maxM, n, s)
			})
		})
	if err != nil {
		return nil, err
	}
	bound := math.Pow(0.9, float64(m-1)) + e10Floor(p)
	slack := 3*math.Sqrt(bound/float64(trials)) + 1e-4
	return []results.Cell{
		results.Float(curve[m]).WithN(trials),
		results.Float(bound),
		results.Bool(curve[m] <= bound+slack),
	}, nil
}

func runE10(p Params, rep *Report) error {
	violations := countFalse(rep.Labels("within_bound"))
	rep.SetMetric("violations", float64(violations))
	rep.SetMetric("floor", e10Floor(p))
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

// e11Base is the horizon E11 measures B(t)'s growth from.
const e11Base = 64

// cellE11 reads B(t) off one prefix-summed re-collision curve per
// topology, shared by every cell of that topology and sized to the
// sweep's largest horizon (at least e11Base), and classifies its
// growth since e11Base. The curve is seeded by the topology's position
// in the registered axis list (the historical seed offset).
func cellE11(p Params, pt Point) ([]results.Cell, error) {
	name, t := pt.String("topo"), pt.Int("t")
	trials := pick(p, 100000, 10000)
	bt, err := sweepShared("E11/"+name, p,
		func(bt []float64) bool { return len(bt) > max(t, e11Base) },
		func() ([]float64, error) {
			g, err := e11Graph(p, name)
			if err != nil {
				return nil, err
			}
			maxM := max(activeMaxInt(pt, "t"), e11Base)
			curve, err := mcCurve(p, "E11-"+name, trials, p.Seed+uint64(pt.Index("topo")), func(n int, s *rng.Stream) []float64 {
				return walk.RecollisionCurve(g, 0, maxM, n, s)
			})
			if err != nil {
				return nil, err
			}
			return walk.SumCurve(curve), nil
		})
	if err != nil {
		return nil, err
	}
	growth := bt[t] / bt[e11Base]
	class := "O(1)"
	switch {
	case growth > 4:
		class = "sqrt(t)-like"
	case growth > 1.5:
		class = "log(t)-like"
	}
	return []results.Cell{
		results.Float(bt[t]).WithN(trials),
		results.Float(growth),
		results.String(class),
	}, nil
}

// runE11 records each topology's growth at its largest horizon: the
// last row of the topology wins.
func runE11(p Params, rep *Report) error {
	growths := rep.Floats("growth")
	for i, name := range rep.Labels("topo") {
		rep.SetMetric("growth_"+name, growths[i])
	}
	rep.Notef("paper: B(t) grows like sqrt(t) on the ring, log t on the 2-D torus, O(1) on k>=3 tori / expanders / hypercubes")
	return nil
}
