package experiments

import (
	"fmt"
	"math"
	"strings"

	"antdensity"
	"antdensity/internal/core"
	"antdensity/internal/results"
	"antdensity/internal/sim"
	"antdensity/internal/stats"
	"antdensity/internal/topology"
)

var (
	e01Axes = []Axis{
		FloatAxis("d", []float64{0.02, 0.05, 0.1, 0.2}, nil).WithUnit("agents/node"),
		IntAxis("steps", []int{1500}, []int{250}).WithUnit("rounds"),
	}
	e02Axes = []Axis{
		IntAxis("steps", []int{125, 250, 500, 1000, 2000, 4000}, []int{100, 200, 400, 800}).WithUnit("rounds"),
	}
	e03Axes = []Axis{
		StringAxis("estimator", []string{"alg1-torus2d", "alg1-complete", "alg4-torus2d"}, nil),
	}
	e12Axes = []Axis{
		IntAxis("steps", []int{25, 50, 100, 200}, []int{25, 50, 100}).WithUnit("rounds"),
	}
	e13Axes = []Axis{
		FloatAxis("f", []float64{0.1, 0.25, 0.5}, nil),
	}
	e18Axes = []Axis{
		StringAxis("variant", []string{"baseline", "detect_0.8", "detect_0.5", "spurious_0.05", "lazy_0.2", "biased_2111"}, nil),
	}
)

func init() {
	register(Experiment{
		ID:    "E01",
		Title: "Unbiasedness of the encounter-rate estimator across densities",
		Claim: "Corollary 3: E[d-tilde] = d on the 2-D torus",
		Axes:  e01Axes,
		Columns: []results.Column{
			{Name: "density", Unit: "agents/node"},
			{Name: "mean_dtilde", Unit: "agents/node", CI: true},
			{Name: "bias_ratio"},
			{Name: "rel_std"},
		},
		Cell: cellE01,
		Body: runE01,
	})
	register(Experiment{
		ID:    "E02",
		Title: "Theorem 1 error scaling in t on the 2-D torus",
		Claim: "Theorem 1: eps ~ sqrt(log(1/delta)/(t d)) log(2t), i.e. error ~ t^(-1/2) up to logs",
		Axes:  e02Axes,
		Columns: []results.Column{
			{Name: "mean_abs_rel_err", CI: true},
			{Name: "p95_abs_rel_err"},
			{Name: "thm1_eps"},
		},
		Cell: cellE02,
		Body: runE02,
	})
	register(Experiment{
		ID:    "E03",
		Title: "2-D torus vs complete graph vs independent sampling",
		Claim: "Sections 1.1-1.2: torus matches the complete graph up to a polylog factor",
		Axes:  e03Axes,
		Columns: []results.Column{
			{Name: "rounds", Unit: "rounds"},
			{Name: "mean_abs_rel_err", CI: true},
			{Name: "fail_rate"},
		},
		Cell: cellE03,
		Body: runE03,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Independent-sampling baseline error scaling (Algorithm 4)",
		Claim: "Theorem 32: eps ~ sqrt(log(1/delta)/(t d)), no log(t) factor",
		Axes:  e12Axes,
		Columns: []results.Column{
			{Name: "mean_abs_rel_err", CI: true},
			{Name: "thm32_eps"},
		},
		Cell: cellE12,
		Body: runE12,
	})
	register(Experiment{
		ID:    "E13",
		Title: "Robot-swarm property frequency estimation",
		Claim: "Section 5.2: d-tilde_P / d-tilde in [(1-O(eps)) f_P, (1+O(eps)) f_P]",
		Axes:  e13Axes,
		Columns: []results.Column{
			{Name: "true_fp"},
			{Name: "mean_ftilde", CI: true},
			{Name: "rel_bias"},
			{Name: "mean_abs_rel_err"},
		},
		Cell: cellE13,
		Body: runE13,
	})
	register(Experiment{
		ID:    "E18",
		Title: "Noise and movement-perturbation ablation",
		Claim: "Section 6.1: robustness of encounter-rate estimation to sensing noise and lazy/biased walks",
		Axes:  e18Axes,
		Columns: []results.Column{
			{Name: "mean_dtilde", Unit: "agents/node", CI: true},
			{Name: "predicted", Unit: "agents/node"},
			{Name: "ratio"},
		},
		Cell: cellE18,
		Body: runE18,
	})
}

// densityTrials runs, for each of trials trials, the density or
// independent-sampling Spec that build returns through RunSpec: a
// trial's samples are its agents' estimates, its "density" value the
// world's true density.
func densityTrials(p Params, name string, trials int, seed uint64, build func(tr Trial) (*antdensity.Spec, error)) (*ExperimentResult, error) {
	return p.runTrials(TrialSpec{
		Name:   name,
		Trials: trials,
		Seed:   seed,
		Run: func(tr Trial) (TrialResult, error) {
			spec, err := build(tr)
			if err != nil {
				return TrialResult{}, err
			}
			out, res, _, err := RunSpec(spec)
			if err != nil {
				return TrialResult{}, err
			}
			r := TrialResult{Samples: out.Estimates}
			r.Set("density", res.Metrics["true_density"])
			return r, nil
		},
	})
}

// algorithm1Trials runs Algorithm 1 over trials fresh uniform worlds
// of agents agents on g (see densityTrials).
func algorithm1Trials(p Params, g topology.Graph, agents, t, trials int, seed uint64) (*ExperimentResult, error) {
	return densityTrials(p, "algorithm1", trials, seed, func(tr Trial) (*antdensity.Spec, error) {
		return antdensity.DensitySpec(antdensity.WithGraph(g), antdensity.WithAgents(agents),
			antdensity.WithSeed(tr.Seed), antdensity.WithRounds(t)), nil
	})
}

// algorithm4Trials runs Algorithm 4 the same way; each trial draws its
// walking/stationary coin seed from its stream.
func algorithm4Trials(p Params, g topology.Graph, agents, t, trials int, seed uint64) (*ExperimentResult, error) {
	return densityTrials(p, "algorithm4", trials, seed, func(tr Trial) (*antdensity.Spec, error) {
		return antdensity.IndependentSpec(antdensity.WithGraph(g), antdensity.WithAgents(agents),
			antdensity.WithSeed(tr.Seed), antdensity.WithRounds(t), antdensity.WithPolicySeed(tr.Stream.Uint64())), nil
	})
}

// relErrors returns a trial set's pooled per-agent relative errors
// against its true density and their CI over per-trial means.
func relErrors(res *ExperimentResult) (errs []float64, ci95 float64) {
	d := res.Value("density")
	return stats.RelErrors(res.Samples(), d), relErrCI95(res, d)
}

// algorithm1Errors runs algorithm1Trials and returns the pooled
// relative errors and their CI (see relErrors).
func algorithm1Errors(p Params, g topology.Graph, agents, t, trials int, seed uint64) ([]float64, float64, error) {
	res, err := algorithm1Trials(p, g, agents, t, trials, seed)
	if err != nil {
		return nil, 0, err
	}
	errs, ci95 := relErrors(res)
	return errs, ci95, nil
}

// relErrCI95 returns the 95% confidence half-width of the mean
// absolute relative error, computed over per-trial means: trials are
// the independent unit — per-agent errors within a trial share one
// world's collision history and are correlated, so pooling them into
// one CI would understate the uncertainty (the ExperimentResult.CI95
// convention, applied to errors against a known truth).
func relErrCI95(res *ExperimentResult, truth float64) float64 {
	means := make([]float64, 0, len(res.Trials))
	for _, tr := range res.Trials {
		if len(tr.Samples) > 0 {
			means = append(means, stats.Mean(stats.RelErrors(tr.Samples, truth)))
		}
	}
	return stats.MeanCI95(means)
}

// e01Measure runs E01's grid cell: Algorithm 1 on the side-20 torus at
// the requested density and horizon.
func e01Measure(p Params, d float64, t int) (res *ExperimentResult, agents int, err error) {
	g := topology.MustTorus(2, 20) // A = 400
	agents = int(d*float64(g.NumNodes())) + 1
	trials := pick(p, 6, 2)
	res, err = algorithm1Trials(p, g, agents, t, trials, p.Seed+uint64(agents)<<20)
	return res, agents, err
}

func cellE01(p Params, pt Point) ([]results.Cell, error) {
	res, _, err := e01Measure(p, pt.Float("d"), pt.Int("steps"))
	if err != nil {
		return nil, err
	}
	all, truth := res.Samples(), res.Value("density")
	mean := stats.Mean(all)
	n := len(res.Trials)
	return []results.Cell{
		results.Float(truth),
		results.FloatCI(mean, res.CI95(), n),
		results.Float(mean / truth),
		results.Float(stats.StdDev(all) / truth),
	}, nil
}

func runE01(p Params, rep *Report) error {
	tb := rep.Table("density d", "agents", "rounds t", "mean d-tilde", "95% CI", "bias ratio", "rel std")
	maxBias := 0.0
	if err := Grid(p, e01Axes, func(pt Point) error {
		t := pt.Int("steps")
		res, agents, err := e01Measure(p, pt.Float("d"), t)
		if err != nil {
			return err
		}
		all, truth := res.Samples(), res.Value("density")
		mean := stats.Mean(all)
		bias := mean / truth
		relStd := stats.StdDev(all) / truth
		if math.Abs(bias-1) > maxBias {
			maxBias = math.Abs(bias - 1)
		}
		tb.AddRow(truth, agents, t, mean, res.CI95(), bias, relStd)
		return nil
	}); err != nil {
		return err
	}
	rep.SetMetric("max_abs_bias", maxBias)
	rep.Notef("paper: bias ratio = 1 exactly in expectation; measured max |bias-1| = %.4f", maxBias)
	return nil
}

// e02Measure runs E02's grid cell: Algorithm 1 at one horizon on the
// fixed side-32 torus; callers derive errors from the result's
// samples and the returned true density.
func e02Measure(p Params, t int) (res *ExperimentResult, d float64, err error) {
	g := topology.MustTorus(2, 32) // A = 1024
	const agents = 103             // d ~ 0.0996
	trials := pick(p, 8, 3)
	res, err = algorithm1Trials(p, g, agents, t, trials, p.Seed+uint64(t))
	if err != nil {
		return nil, 0, err
	}
	return res, res.Value("density"), nil
}

func cellE02(p Params, pt Point) ([]results.Cell, error) {
	t := pt.Int("steps")
	res, d, err := e02Measure(p, t)
	if err != nil {
		return nil, err
	}
	errs := stats.RelErrors(res.Samples(), d)
	return []results.Cell{
		results.FloatCI(stats.Mean(errs), relErrCI95(res, d), len(res.Trials)),
		results.Float(stats.Quantile(errs, 0.95)),
		results.Float(core.TheoremOneEpsilon(t, d, 0.05, 0.35)),
	}, nil
}

func runE02(p Params, rep *Report) error {
	tb := rep.Table("rounds t", "mean |rel err|", "p95 |rel err|", "Thm1 eps (c1=0.35)")
	var xs, ys []float64
	var d float64
	if err := Grid(p, e02Axes, func(pt Point) error {
		t := pt.Int("steps")
		res, truth, err := e02Measure(p, t)
		if err != nil {
			return err
		}
		errs := stats.RelErrors(res.Samples(), truth)
		d = truth
		mean := stats.Mean(errs)
		tb.AddRow(t, mean, stats.Quantile(errs, 0.95), core.TheoremOneEpsilon(t, d, 0.05, 0.35))
		xs = append(xs, float64(t))
		ys = append(ys, mean)
		return nil
	}); err != nil {
		return err
	}
	alpha, _, r2 := stats.FitPowerLaw(xs, ys)
	rep.SetMetric("slope", alpha)
	rep.SetMetric("r2", r2)
	rep.SetMetric("density", d)
	rep.Notef("paper: error ~ t^(-1/2) up to log factors; measured slope = %.3f (R2 = %.3f)", alpha, r2)
	return nil
}

// e03Measure runs one of E03's estimator/graph cases and returns the
// pooled per-agent relative errors, their CI (over per-trial means),
// the horizon actually used, and the trial count.
func e03Measure(p Params, which string) (errs []float64, ci95 float64, rounds, trials int, err error) {
	const agents = 103
	t := pick(p, 2000, 400)
	trials = pick(p, 8, 3)
	switch which {
	case "alg1-torus2d":
		errs, ci95, err = algorithm1Errors(p, topology.MustTorus(2, 32), agents, t, trials, p.Seed)
		return errs, ci95, t, trials, err
	case "alg1-complete":
		complete := topology.MustComplete(topology.MustTorus(2, 32).NumNodes())
		errs, ci95, err = algorithm1Errors(p, complete, agents, t, trials, p.Seed+1000)
		return errs, ci95, t, trials, err
	case "alg4-torus2d":
		// Algorithm 4 requires t < sqrt(A); run it on a torus sized to
		// its own (shorter) horizon at the same density.
		t4 := t
		if t4 > 200 {
			t4 = 200
		}
		big := topology.MustTorus(2, 210)
		bigAgents := int(0.1*float64(big.NumNodes())) + 1
		res, rerr := algorithm4Trials(p, big, bigAgents, t4, trials, p.Seed+2000)
		if rerr != nil {
			return nil, 0, 0, 0, rerr
		}
		errs, ci95 = relErrors(res)
		return errs, ci95, t4, trials, nil
	}
	return nil, 0, 0, 0, fmt.Errorf("E03: unknown estimator case %q", which)
}

// e03FailRate is the fraction of errors above the eps=0.5 band.
func e03FailRate(errs []float64) float64 {
	fails := 0
	for _, e := range errs {
		if e > 0.5 {
			fails++
		}
	}
	return float64(fails) / float64(len(errs))
}

func cellE03(p Params, pt Point) ([]results.Cell, error) {
	errs, ci95, rounds, trials, err := e03Measure(p, pt.String("estimator"))
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Int(int64(rounds)),
		results.FloatCI(stats.Mean(errs), ci95, trials),
		results.Float(e03FailRate(errs)),
	}, nil
}

func runE03(p Params, rep *Report) error {
	tb := rep.Table("estimator", "graph", "rounds t", "mean |rel err|", "fail rate (eps=0.5)")
	if err := Grid(p, e03Axes, func(pt Point) error {
		which := pt.String("estimator")
		errs, _, rounds, _, err := e03Measure(p, which)
		if err != nil {
			return err
		}
		name, graph, _ := strings.Cut(which, "-")
		mean := stats.Mean(errs)
		tb.AddRow(name, graph, rounds, mean, e03FailRate(errs))
		rep.SetMetric(name+"_"+graph, mean)
		return nil
	}); err != nil {
		return err
	}
	torus, _ := rep.Metric("alg1_torus2d")
	complete, _ := rep.Metric("alg1_complete")
	ratio := torus / complete
	rep.SetMetric("torus_over_complete", ratio)
	rep.Notef("paper: torus within [log log(1/delta)+log(1/d eps)]^2 of complete graph; measured error ratio = %.2f", ratio)
	return nil
}

// e12Measure runs Algorithm 4 at one horizon on the Theorem 32 torus
// and returns its agents' relative errors, their CI and the trial
// count.
func e12Measure(p Params, t int) (errs []float64, ci95 float64, trials int, err error) {
	trials = pick(p, 10, 3)
	// Theorem 32 requires t < sqrt(A): fix a torus whose side bounds
	// the largest t in the sweep.
	g := topology.MustTorus(2, 210) // A = 44100, sqrt(A) = 210
	agents := int(0.05*float64(g.NumNodes())) + 1
	res, err := algorithm4Trials(p, g, agents, t, trials, p.Seed+uint64(t)<<16)
	if err != nil {
		return nil, 0, 0, err
	}
	errs, ci95 = relErrors(res)
	return errs, ci95, trials, nil
}

func cellE12(p Params, pt Point) ([]results.Cell, error) {
	t := pt.Int("steps")
	errs, ci95, trials, err := e12Measure(p, t)
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.FloatCI(stats.Mean(errs), ci95, trials),
		results.Float(0.8 * core.Theorem32Epsilon(t, 0.05, 0.05)),
	}, nil
}

func runE12(p Params, rep *Report) error {
	tb := rep.Table("rounds t", "mean |rel err|", "95% CI", "Thm32 eps (c=0.8)")
	var xs, ys []float64
	if err := Grid(p, e12Axes, func(pt Point) error {
		t := pt.Int("steps")
		errs, ci95, _, err := e12Measure(p, t)
		if err != nil {
			return err
		}
		mean := stats.Mean(errs)
		tb.AddRow(t, mean, ci95, 0.8*core.Theorem32Epsilon(t, 0.05, 0.05))
		xs = append(xs, float64(t))
		ys = append(ys, mean)
		return nil
	}); err != nil {
		return err
	}
	alpha, _, r2 := stats.FitPowerLaw(xs, ys)
	rep.SetMetric("slope", alpha)
	rep.SetMetric("r2", r2)
	rep.Notef("paper: error ~ t^(-1/2) exactly (no log factor); measured slope = %.3f (R2 = %.3f)", alpha, r2)
	return nil
}

// e13Measure runs E13's grid cell at one tagged fraction, returning
// the pooled per-agent frequency estimates and the untagged-observer
// truth.
func e13Measure(p Params, frac float64) (res *ExperimentResult, truth float64, err error) {
	g := topology.MustTorus(2, 24) // A = 576
	const agents = 80
	t := pick(p, 2500, 400)
	trials := pick(p, 6, 2)
	tagCount := int(frac * agents)
	res, err = p.runTrials(TrialSpec{
		Name:   "E13",
		Trials: trials,
		Seed:   p.Seed + uint64(tagCount)<<16,
		Run: func(tr Trial) (TrialResult, error) {
			out, _, _, err := RunSpec(antdensity.PropertySpec(antdensity.WithGraph(g), antdensity.WithAgents(agents),
				antdensity.WithSeed(tr.Seed), antdensity.WithRounds(t), antdensity.WithTaggedCount(tagCount)))
			if err != nil {
				return TrialResult{}, err
			}
			var r TrialResult
			for _, f := range out.Property.Frequency {
				if !math.IsNaN(f) {
					r.Samples = append(r.Samples, f)
				}
			}
			return r, nil
		},
	})
	// The per-agent expectation of f_P depends slightly on whether the
	// observer is tagged; use the untagged-observer value
	// tagCount/(agents-1) as truth.
	truth = float64(tagCount) / float64(agents-1)
	return res, truth, err
}

func cellE13(p Params, pt Point) ([]results.Cell, error) {
	res, truth, err := e13Measure(p, pt.Float("f"))
	if err != nil {
		return nil, err
	}
	freqs := res.Samples()
	mean := stats.Mean(freqs)
	return []results.Cell{
		results.Float(truth),
		results.FloatCI(mean, res.CI95(), len(res.Trials)),
		results.Float(mean/truth - 1),
		results.Float(stats.Mean(stats.RelErrors(freqs, truth))),
	}, nil
}

func runE13(p Params, rep *Report) error {
	tb := rep.Table("true f_P", "mean f-tilde", "rel bias", "mean |rel err|")
	maxBias := 0.0
	if err := Grid(p, e13Axes, func(pt Point) error {
		res, truth, err := e13Measure(p, pt.Float("f"))
		if err != nil {
			return err
		}
		freqs := res.Samples()
		mean := stats.Mean(freqs)
		bias := mean/truth - 1
		if math.Abs(bias) > maxBias {
			maxBias = math.Abs(bias)
		}
		tb.AddRow(truth, mean, bias, stats.Mean(stats.RelErrors(freqs, truth)))
		return nil
	}); err != nil {
		return err
	}
	rep.SetMetric("max_abs_bias", maxBias)
	rep.Notef("paper: f-tilde within (1 +- O(eps)) f_P; measured max |bias| = %.4f", maxBias)
	return nil
}

// e18Case resolves one named E18 ablation variant into its predicted
// mean, movement policy, and sensing-noise options.
func e18Case(p Params, name string) (predicted float64, policy sim.Policy, noise []antdensity.SpecOption, err error) {
	g := topology.MustTorus(2, 20) // A = 400
	const agents = 41              // d = 0.1
	d := float64(agents-1) / float64(g.NumNodes())
	switch name {
	case "baseline":
		return d, nil, nil, nil
	case "detect_0.8":
		return 0.8 * d, nil, []antdensity.SpecOption{antdensity.WithSensingNoise(0.8, 0, p.Seed+5)}, nil
	case "detect_0.5":
		return 0.5 * d, nil, []antdensity.SpecOption{antdensity.WithSensingNoise(0.5, 0, p.Seed+6)}, nil
	case "spurious_0.05":
		return d + 0.05, nil, []antdensity.SpecOption{antdensity.WithSensingNoise(1, 0.05, p.Seed+7)}, nil
	case "lazy_0.2":
		return d, sim.Lazy{StayProb: 0.2}, nil, nil
	case "biased_2111":
		biased, berr := sim.NewBiased([]float64{2, 1, 1, 1})
		if berr != nil {
			return 0, nil, nil, berr
		}
		return d, biased, nil, nil
	}
	return 0, nil, nil, fmt.Errorf("E18: unknown variant %q", name)
}

// e18Measure runs one E18 variant; ci is the variant's position in the
// active axis list (the historical seed offset). A movement policy is
// set on a world the trial builds and hands to its Spec.
func e18Measure(p Params, name string, ci int) (res *ExperimentResult, predicted float64, err error) {
	g := topology.MustTorus(2, 20) // A = 400
	const agents = 41              // d = 0.1
	t := pick(p, 2000, 300)
	trials := pick(p, 5, 2)
	predicted, policy, noise, err := e18Case(p, name)
	if err != nil {
		return nil, 0, err
	}
	res, err = densityTrials(p, "E18-"+name, trials, p.Seed+uint64(ci)<<24, func(tr Trial) (*antdensity.Spec, error) {
		opts := append([]antdensity.SpecOption{antdensity.WithSeed(tr.Seed), antdensity.WithRounds(t)}, noise...)
		if policy == nil {
			return antdensity.DensitySpec(append(opts, antdensity.WithGraph(g), antdensity.WithAgents(agents))...), nil
		}
		w, err := sim.NewWorld(sim.Config{Graph: g, NumAgents: agents, Seed: tr.Seed, Policy: policy})
		if err != nil {
			return nil, err
		}
		return antdensity.DensitySpec(append(opts, antdensity.WithWorld(w))...), nil
	})
	return res, predicted, err
}

func cellE18(p Params, pt Point) ([]results.Cell, error) {
	res, predicted, err := e18Measure(p, pt.String("variant"), pt.Index("variant"))
	if err != nil {
		return nil, err
	}
	mean := res.Mean()
	return []results.Cell{
		results.FloatCI(mean, res.CI95(), len(res.Trials)),
		results.Float(predicted),
		results.Float(mean / predicted),
	}, nil
}

func runE18(p Params, rep *Report) error {
	tb := rep.Table("variant", "mean d-tilde", "predicted", "ratio")
	if err := Grid(p, e18Axes, func(pt Point) error {
		name := pt.String("variant")
		res, predicted, err := e18Measure(p, name, pt.Index("variant"))
		if err != nil {
			return err
		}
		mean := res.Mean()
		tb.AddRow(name, mean, predicted, mean/predicted)
		rep.SetMetric(name, mean/predicted)
		return nil
	}); err != nil {
		return err
	}
	rep.Notef("paper (Section 6.1): estimates remain calibrated under detection thinning (scale p), spurious floor (+q), and lazy/biased walks (unchanged mean)")
	return nil
}
