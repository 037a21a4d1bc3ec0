package experiments

import (
	"antdensity"
	"antdensity/internal/quorum"
	"antdensity/internal/results"
	"antdensity/internal/stats"
	"antdensity/internal/topology"
)

var e26Axes = []Axis{FloatAxis("ratio", []float64{0.25, 0.5, 2.0, 4.0}, nil)}

func init() {
	register(Experiment{
		ID:    "E26",
		Title: "Anytime quorum: adaptive stopping times vs the fixed Theorem 1 horizon",
		Claim: "Section 6.2: agents with anytime confidence bands stop when the band clears theta; stopping time shrinks with the margin |d - theta| while the fixed horizon is sized for theta alone",
		Axes:  e26Axes,
		Columns: []results.Column{
			{Name: "fixed_t", Unit: "rounds"},
			{Name: "mean_stop", Unit: "rounds", CI: true},
			{Name: "p90_stop", Unit: "rounds"},
			{Name: "correct"},
			{Name: "undecided"},
			{Name: "saving"},
		},
		Cell: cellE26,
		Body: runE26,
	})
}

// e26Consts are the Section 6.2 detection constants shared by every
// E26 cell.
const (
	e26Threshold = 0.1
	e26Eps       = 0.25
	e26Delta     = 0.05
	e26C1        = 0.6
	e26C2        = 0.05
)

// e26Fixed is the fixed-horizon strawman: Theorem 1's bound at the
// threshold density (the Section 6.2 sizing rule), which every agent
// would run in full regardless of how far d actually is from theta.
func e26Fixed() int {
	return quorum.DetectionRounds(e26Threshold, e26Eps, e26Delta, e26C2)
}

// anytimeQuorumTrials runs one adaptive quorum Spec per trial on the
// side-20 torus at density ~ratio*theta, with E26's detection
// constants (which E24 shares) and a pick(40000, 8000)-round budget,
// and hands each trial's decisions to record.
func anytimeQuorumTrials(p Params, name string, ratio float64, trials int, seed uint64, record func(ar *antdensity.QuorumAnytimeResult, r *TrialResult)) (*ExperimentResult, error) {
	g := topology.MustTorus(2, 20) // A = 400
	agents := int(ratio*e26Threshold*float64(g.NumNodes())) + 1
	maxRounds := pick(p, 40000, 8000)
	return p.runTrials(TrialSpec{
		Name:   name,
		Trials: trials,
		Seed:   seed,
		Run: func(tr Trial) (TrialResult, error) {
			out, _, _, err := RunSpec(antdensity.AdaptiveQuorumSpec(e26Threshold,
				antdensity.WithGraph(g), antdensity.WithAgents(agents), antdensity.WithSeed(tr.Seed),
				antdensity.WithRounds(maxRounds), antdensity.WithConfidence(e26Delta), antdensity.WithBandConstant(e26C1)))
			if err != nil {
				return TrialResult{}, err
			}
			var r TrialResult
			record(out.Anytime, &r)
			return r, nil
		},
	})
}

// e26Measure runs E26 at one density ratio; ri is the ratio's position
// in the active axis list (the historical seed offset).
func e26Measure(p Params, ratio float64, ri int) (res *ExperimentResult, err error) {
	want := -1
	if ratio > 1 {
		want = +1
	}
	return anytimeQuorumTrials(p, "E26", ratio, pick(p, 12, 6), p.Seed+uint64(ri)<<18, func(ar *antdensity.QuorumAnytimeResult, r *TrialResult) {
		correct, undecided := 0, 0
		for i, d := range ar.Decision {
			switch d {
			case 0:
				undecided++
			case want:
				correct++
			}
			r.Samples = append(r.Samples, float64(ar.StopRound[i]))
		}
		n := float64(len(ar.Decision))
		r.Set("correct", float64(correct)/n)
		r.Set("undecided", float64(undecided)/n)
	})
}

func cellE26(p Params, pt Point) ([]results.Cell, error) {
	res, err := e26Measure(p, pt.Float("ratio"), pt.Index("ratio"))
	if err != nil {
		return nil, err
	}
	tFixed := e26Fixed()
	stops := res.Samples()
	meanStop := stats.Mean(stops)
	return []results.Cell{
		results.Int(int64(tFixed)),
		results.FloatCI(meanStop, res.CI95(), len(res.Trials)),
		results.Float(stats.Quantile(stops, 0.9)),
		results.Float(res.MeanValue("correct")),
		results.Float(res.MeanValue("undecided")),
		results.Float(float64(tFixed) / meanStop),
	}, nil
}

func runE26(p Params, rep *Report) error {
	tFixed := e26Fixed()
	tb := rep.Table("d/theta", "fixed t", "mean stop round", "p90 stop round", "correct", "undecided", "rounds saved vs fixed")
	if err := Grid(p, e26Axes, func(pt Point) error {
		ratio := pt.Float("ratio")
		res, err := e26Measure(p, ratio, pt.Index("ratio"))
		if err != nil {
			return err
		}
		stops := res.Samples()
		meanStop := stats.Mean(stops)
		p90 := stats.Quantile(stops, 0.9)
		correct := res.MeanValue("correct")
		undecided := res.MeanValue("undecided")
		saving := float64(tFixed) / meanStop
		tb.AddRow(ratio, tFixed, meanStop, p90, correct, undecided, saving)
		rep.SetMetric(fmtRatioMetric("correct", ratio), correct)
		rep.SetMetric(fmtRatioMetric("meanstop", ratio), meanStop)
		rep.SetMetric(fmtRatioMetric("saving", ratio), saving)
		return nil
	}); err != nil {
		return err
	}
	rep.Notef("paper (Section 6.2): adaptive agents pay for the margin, not the threshold — stopping times at 4x/0.25x theta sit far below both the fixed t=%d horizon and the 2x/0.5x stopping times", tFixed)
	return nil
}
