package experiments

// The adversarial suite (ROADMAP O3): how badly do Byzantine agents
// poison Algorithm 1's aggregate estimate, how much of the damage do
// robust aggregators absorb, and how reliably does co-location
// auditing identify the liars.
//
//   - E27: estimation accuracy vs adversary fraction f, mean vs the
//     robust aggregators (median, trimmed mean, median-of-means).
//   - E28: the same world under every fault strategy at f = 0.2, with
//     the quorum vote and its trimmed counterpart.
//   - E29: dishonesty detection from contradictory co-located
//     reports — TPR/FPR vs f.

import (
	"math"

	"antdensity"
	"antdensity/internal/results"
	"antdensity/internal/stats"
)

// Shared adversarial-world constants: the paper's side-20 torus
// (A = 400) with 41 agents, true density d = 0.1025.
const (
	advAgents = 41
	advSide   = 20
	// advBoost is the inflate/deflate count boost used by E27/E29.
	advBoost = 5
)

// advTrials runs the adversarial suite's trials: each builds the Spec
// kind returns on the side-20 torus with advAgents agents, seeded by
// the trial (the Spec derives the adversary seed from it), for rounds
// rounds with a fraction f of strategy adversaries (param 0: the
// strategy's default), and hands the Run's result metrics to record.
// i is the case's axis position (the historical seed offset).
func advTrials(p Params, name string, i, rounds int, kind func(...antdensity.SpecOption) *antdensity.Spec,
	strategy string, f, param float64, record func(m results.Metrics, r *TrialResult)) (*ExperimentResult, error) {
	return p.runTrials(TrialSpec{
		Name:   name,
		Trials: pick(p, 10, 4),
		Seed:   p.Seed + uint64(i)<<18,
		Run: func(tr Trial) (TrialResult, error) {
			_, res, _, err := RunSpec(kind(antdensity.WithTorus2D(advSide), antdensity.WithAgents(advAgents),
				antdensity.WithSeed(tr.Seed), antdensity.WithRounds(rounds), antdensity.WithAdversary(strategy, f, param, 0)))
			if err != nil {
				return TrialResult{}, err
			}
			var r TrialResult
			record(res.Metrics, &r)
			return r, nil
		},
	})
}

var e27Axes = []Axis{FloatAxis("f", []float64{0, 0.1, 0.2, 0.3}, nil)}

func init() {
	register(Experiment{
		ID:    "E27",
		Title: "Adversarial estimation: robust aggregators vs the mean as the Byzantine fraction grows",
		Claim: "count-inflating adversaries poison the mean estimate in proportion to f * boost; median, trimmed mean, and median-of-means hold near the true density until f crosses their breakdown point (25% for trimming/MoM, 50% for the median)",
		Axes:  e27Axes,
		Columns: []results.Column{
			{Name: "relerr_mean", CI: true},
			{Name: "relerr_median"},
			{Name: "relerr_trimmed"},
			{Name: "relerr_mom"},
		},
		Cell: cellE27,
		Body: runE27,
	})
	register(Experiment{
		ID:    "E28",
		Title: "Fault strategies at f = 0.2: estimate damage and quorum votes, plain vs trimmed",
		Claim: "every fault strategy (inflate, deflate, random, stall, crash) moves the mean estimate and the plain quorum vote, while median-of-means and the trimmed vote recover the honest outcome",
		Axes:  e28Axes,
		Columns: []results.Column{
			{Name: "mean_est", CI: true},
			{Name: "mom_est"},
			{Name: "vote_frac"},
			{Name: "trimmed_vote_frac"},
		},
		Cell: cellE28,
		Body: runE28,
	})
	register(Experiment{
		ID:    "E29",
		Title: "Dishonesty detection from co-located reports: TPR/FPR vs the Byzantine fraction",
		Claim: "agents sharing a cell saw the same collisions, so contradiction rates against the co-located consensus separate inflating adversaries from honest agents with high TPR and low FPR below f = 1/2",
		Axes:  e29Axes,
		Columns: []results.Column{
			{Name: "tpr", CI: true},
			{Name: "fpr"},
			{Name: "flagged_frac"},
		},
		Cell: cellE29,
		Body: runE29,
	})
}

// e27Measure runs Algorithm 1 with an f-fraction of count-inflating
// adversaries and measures each aggregator's relative error.
func e27Measure(p Params, f float64, fi int) (*ExperimentResult, error) {
	return advTrials(p, "E27", fi, pick(p, 2000, 400), antdensity.DensitySpec, "inflate", f, advBoost,
		func(m results.Metrics, r *TrialResult) {
			d := m["true_density"]
			for _, agg := range stats.Aggregators() {
				r.Set("relerr_"+agg.String(), math.Abs(m["estimate_"+agg.String()]-d)/d)
			}
		})
}

func cellE27(p Params, pt Point) ([]results.Cell, error) {
	res, err := e27Measure(p, pt.Float("f"), pt.Index("f"))
	if err != nil {
		return nil, err
	}
	meanErrs := res.ValueSlice("relerr_mean")
	return []results.Cell{
		results.FloatCI(stats.Mean(meanErrs), stats.MeanCI95(meanErrs), len(res.Trials)),
		results.Float(res.MeanValue("relerr_median")),
		results.Float(res.MeanValue("relerr_trimmed")),
		results.Float(res.MeanValue("relerr_mom")),
	}, nil
}

func runE27(p Params, rep *Report) error {
	tb := rep.Table("adversary fraction f", "mean rel err", "median rel err", "trimmed rel err", "med-of-means rel err")
	if err := Grid(p, e27Axes, func(pt Point) error {
		f := pt.Float("f")
		res, err := e27Measure(p, f, pt.Index("f"))
		if err != nil {
			return err
		}
		row := []any{f}
		for _, agg := range stats.Aggregators() {
			relerr := res.MeanValue("relerr_" + agg.String())
			row = append(row, relerr)
			rep.SetMetric(fmtRatioMetric("relerr_"+agg.String(), f), relerr)
		}
		tb.AddRow(row...)
		return nil
	}); err != nil {
		return err
	}
	rep.Notef("an f-fraction of +%d inflators drags the mean by ~f*%d/d; at f = 0.2 median-of-means sits orders of magnitude closer to d, and past f = 0.25 the trimmed mean and MoM cross their breakdown point while the median (breakdown 1/2) still holds", advBoost, advBoost)
	return nil
}

var e28Axes = []Axis{StringAxis("strategy",
	[]string{"inflate", "deflate", "random", "stall", "crash"}, nil)}

// e28Threshold sits well below the honest density d = 0.1025 — far
// enough that honest estimates clear it even at quick horizons — so
// the honest vote is yes while deflating/stalled/crashed populations
// argue no.
const e28Threshold = 0.06

// e28Measure runs a fixed-horizon quorum vote at e28Threshold under
// one fault strategy at f = 0.2; a timed strategy triggers at the
// Spec's default, half the horizon.
func e28Measure(p Params, strategy string, si int) (*ExperimentResult, error) {
	quorumSpec := func(opts ...antdensity.SpecOption) *antdensity.Spec {
		return antdensity.QuorumSpec(e28Threshold, opts...)
	}
	return advTrials(p, "E28", si, pick(p, 1500, 300), quorumSpec, strategy, 0.2, 0,
		func(m results.Metrics, r *TrialResult) {
			r.Set("mean_est", m["estimate_"+stats.AggMean.String()])
			r.Set("mom_est", m["estimate_"+stats.AggMedianOfMeans.String()])
			r.Set("vote_frac", m["vote_fraction"])
			r.Set("trimmed_vote_frac", m["trimmed_vote_fraction"])
		})
}

func cellE28(p Params, pt Point) ([]results.Cell, error) {
	res, err := e28Measure(p, pt.String("strategy"), pt.Index("strategy"))
	if err != nil {
		return nil, err
	}
	means := res.ValueSlice("mean_est")
	return []results.Cell{
		results.FloatCI(stats.Mean(means), stats.MeanCI95(means), len(res.Trials)),
		results.Float(res.MeanValue("mom_est")),
		results.Float(res.MeanValue("vote_frac")),
		results.Float(res.MeanValue("trimmed_vote_frac")),
	}, nil
}

func runE28(p Params, rep *Report) error {
	tb := rep.Table("strategy", "mean estimate", "med-of-means estimate", "vote fraction", "trimmed vote fraction")
	if err := Grid(p, e28Axes, func(pt Point) error {
		s := pt.String("strategy")
		res, err := e28Measure(p, s, pt.Index("strategy"))
		if err != nil {
			return err
		}
		mean := res.MeanValue("mean_est")
		mom := res.MeanValue("mom_est")
		vf := res.MeanValue("vote_frac")
		tvf := res.MeanValue("trimmed_vote_frac")
		tb.AddRow(s, mean, mom, vf, tvf)
		rep.SetMetric("mean_"+s, mean)
		rep.SetMetric("mom_"+s, mom)
		rep.SetMetric("votefrac_"+s, vf)
		rep.SetMetric("trimvote_"+s, tvf)
		return nil
	}); err != nil {
		return err
	}
	rep.Notef("honest d = 0.1025 sits above theta = %v, so the honest vote is yes; inflate inflates the mean, deflate/crash drag it toward zero, and the trimmed vote discards the 20%% Byzantine tail the plain vote counts", e28Threshold)
	return nil
}

var e29Axes = []Axis{FloatAxis("f", []float64{0.1, 0.2, 0.3, 0.4}, nil)}

// e29Measure scores the co-location audit every adversarial Run
// carries against f-fraction inflators on the ground-truth mask.
func e29Measure(p Params, f float64, fi int) (*ExperimentResult, error) {
	return advTrials(p, "E29", fi, pick(p, 1500, 300), antdensity.DensitySpec, "inflate", f, advBoost,
		func(m results.Metrics, r *TrialResult) {
			r.Set("tpr", m["detect_tpr"])
			r.Set("fpr", m["detect_fpr"])
			r.Set("flagged_frac", m["detect_flagged"]/advAgents)
		})
}

func cellE29(p Params, pt Point) ([]results.Cell, error) {
	res, err := e29Measure(p, pt.Float("f"), pt.Index("f"))
	if err != nil {
		return nil, err
	}
	tprs := res.ValueSlice("tpr")
	return []results.Cell{
		results.FloatCI(stats.Mean(tprs), stats.MeanCI95(tprs), len(res.Trials)),
		results.Float(res.MeanValue("fpr")),
		results.Float(res.MeanValue("flagged_frac")),
	}, nil
}

func runE29(p Params, rep *Report) error {
	tb := rep.Table("adversary fraction f", "TPR", "FPR", "flagged fraction")
	if err := Grid(p, e29Axes, func(pt Point) error {
		f := pt.Float("f")
		res, err := e29Measure(p, f, pt.Index("f"))
		if err != nil {
			return err
		}
		tpr := res.MeanValue("tpr")
		fpr := res.MeanValue("fpr")
		ff := res.MeanValue("flagged_frac")
		tb.AddRow(f, tpr, fpr, ff)
		rep.SetMetric(fmtRatioMetric("tpr", f), tpr)
		rep.SetMetric(fmtRatioMetric("fpr", f), fpr)
		rep.SetMetric(fmtRatioMetric("flagged", f), ff)
		return nil
	}); err != nil {
		return err
	}
	rep.Notef("co-located honest agents agree on what they both saw; a +%d inflator contradicts every cellmate, so TPR approaches 1 quickly while FPR only rises as liars start dominating shared cells", advBoost)
	return nil
}
