package experiments

import (
	"fmt"
	"math"
	"strconv"

	"antdensity"
	"antdensity/internal/results"
	"antdensity/internal/rng"
	"antdensity/internal/sensors"
	"antdensity/internal/sim"
	"antdensity/internal/stats"
	"antdensity/internal/tasks"
	"antdensity/internal/topology"
)

var (
	e19Axes = []Axis{FloatAxis("ratio", []float64{0.25, 0.5, 0.75, 1.0, 1.33, 2.0, 4.0}, nil)}
	e21Axes = []Axis{
		StringAxis("topo", []string{"ring", "torus2d", "torus3d"}, nil),
		IntAxis("steps", []int{64, 256, 1024}, []int{64, 256}).WithUnit("rounds"),
	}
	e24Axes = []Axis{FloatAxis("ratio", []float64{0.25, 0.5, 2.0, 4.0}, nil)}
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Quorum sensing: detection curve sharpens with t",
		Claim: "Section 6.2 / [Pra05]: threshold detection with t set by the quorum level, not the unknown density",
		Axes:  e19Axes,
		Columns: []results.Column{
			{Name: "p_quorum_short"},
			{Name: "p_quorum_long"},
		},
		Cell: cellE19,
		Body: runE19,
	})
	register(Experiment{
		ID:    "E20",
		Title: "Task allocation via per-task encounter rates",
		Claim: "Section 1 / [Gor99]: encounter-rate estimates drive convergence to a target worker allocation",
		Body:  runE20,
	})
	register(Experiment{
		ID:    "E21",
		Title: "Sensor-network token sampling vs independent sampling",
		Claim: "Section 6.3.1 / Corollary 15: revisit overhead on the 2-D grid is logarithmic, not polynomial",
		Axes:  e21Axes,
		Columns: []results.Column{
			{Name: "token_rmse"},
			{Name: "indep_rmse"},
			{Name: "inflation"},
		},
		Cell: cellE21,
		Body: runE21,
	})
	register(Experiment{
		ID:    "E22",
		Title: "Non-uniform placement: local vs global density",
		Claim: "Sections 2.1.1 / 6.1: clustered agents break global estimation; short-horizon estimates track local density",
		Body:  runE22,
	})
	register(Experiment{
		ID:    "E24",
		Title: "Adaptive threshold detection with anytime confidence bands",
		Claim: "Section 6.2: agents detecting whether d exceeds a threshold can stop early; decision time shrinks as |d - theta| grows",
		Axes:  e24Axes,
		Columns: []results.Column{
			{Name: "correct", Unit: "decisions"},
			{Name: "mean_rounds", Unit: "rounds"},
			{Name: "undecided", Unit: "decisions"},
		},
		Cell: cellE24,
		Body: runE24,
	})
}

// cellE24 runs E24 at one density ratio, seeded by its position in the
// registered axis list (the historical seed offset). Each trial scores
// agent 0's decision; the cell counts correct and undecided trials and
// averages the round of the correct decisions (NaN if none).
func cellE24(p Params, pt Point) ([]results.Cell, error) {
	ratio := pt.Float("ratio")
	trials := e24Trials(p)
	res, err := anytimeQuorumTrials(p, "E24", ratio, trials, p.Seed+uint64(pt.Index("ratio"))<<20, func(ar *antdensity.QuorumAnytimeResult, r *TrialResult) {
		r.Set("decision", float64(ar.Decision[0]))
		r.Set("rounds", float64(ar.StopRound[0]))
	})
	if err != nil {
		return nil, err
	}
	want := -1.0
	if ratio > 1 {
		want = +1
	}
	var correct, undecided int
	var rounds []float64
	decidedAts := res.ValueSlice("rounds")
	for i, decision := range res.ValueSlice("decision") {
		switch decision {
		case 0:
			undecided++
		case want:
			correct++
			rounds = append(rounds, decidedAts[i])
		}
	}
	meanRounds := math.NaN()
	if len(rounds) > 0 {
		meanRounds = stats.Mean(rounds)
	}
	return []results.Cell{
		results.Int(int64(correct)).WithN(trials),
		results.Float(meanRounds),
		results.Int(int64(undecided)).WithN(trials),
	}, nil
}

// e24Trials is E24's trial count per ratio.
func e24Trials(p Params) int { return pick(p, 20, 8) }

func runE24(p Params, rep *Report) error {
	correct := rep.Floats("correct")
	for i, ratio := range rep.Labels("ratio") {
		rep.SetMetric("correct_"+ratio, correct[i]/float64(e24Trials(p)))
	}
	// Decisions should be fastest at the extreme ratios.
	meanRounds := rep.Floats("mean_rounds")
	if !math.IsNaN(meanRounds[0]) && !math.IsNaN(meanRounds[1]) {
		rep.SetMetric("speedup_low", meanRounds[1]/meanRounds[0])
	}
	if !math.IsNaN(meanRounds[2]) && !math.IsNaN(meanRounds[3]) {
		rep.SetMetric("speedup_high", meanRounds[2]/meanRounds[3])
	}
	rep.Notef("paper (Section 6.2): detection effort is set by the threshold and shrinks with the margin; decisions at 4x/0.25x theta come much faster than at 2x/0.5x")
	return nil
}

// e19Horizons returns E19's short and long detection horizons.
func e19Horizons(p Params) (tShort, tLong int) {
	return pick(p, 300, 150), pick(p, 3000, 900)
}

// e19Curve measures the psychometric curve of quorum sensing at one
// density ratio: the fraction of all agents voting quorum (estimate
// >= theta = 0.1 after t rounds) over trials side-20 torus worlds at
// density ~ratio*theta. ri is the ratio's position in the registered
// axis list; trial worlds keep the historical seed + ri<<32 + trial
// seeds, so the runner's own per-trial seeds go unused.
func e19Curve(p Params, ratio float64, ri, t int, seed uint64) (float64, error) {
	const threshold = 0.1
	g := topology.MustTorus(2, 20) // A = 400
	agents := int(math.Round(ratio*threshold*float64(g.NumNodes()))) + 1
	trials := pick(p, 6, 2)
	res, err := p.runTrials(TrialSpec{
		Name:   "E19",
		Trials: trials,
		Seed:   seed,
		Run: func(tr Trial) (TrialResult, error) {
			_, vote, _, err := RunSpec(antdensity.QuorumSpec(threshold, antdensity.WithGraph(g), antdensity.WithAgents(agents),
				antdensity.WithSeed(seed+uint64(ri)<<32+uint64(tr.Index)), antdensity.WithRounds(t)))
			if err != nil {
				return TrialResult{}, err
			}
			var r TrialResult
			r.Set("yes", vote.Metrics["yes_votes"])
			return r, nil
		},
	})
	if err != nil {
		return 0, err
	}
	return res.SumValue("yes") / float64(trials*agents), nil
}

// cellE19 measures P[quorum] at one ratio for the short and the long
// horizon.
func cellE19(p Params, pt Point) ([]results.Cell, error) {
	ratio, ri := pt.Float("ratio"), pt.Index("ratio")
	tShort, tLong := e19Horizons(p)
	short, err := e19Curve(p, ratio, ri, tShort, p.Seed)
	if err != nil {
		return nil, err
	}
	long, err := e19Curve(p, ratio, ri, tLong, p.Seed+1)
	if err != nil {
		return nil, err
	}
	trials := pick(p, 6, 2)
	return []results.Cell{
		results.Float(short).WithN(trials),
		results.Float(long).WithN(trials),
	}, nil
}

func runE19(p Params, rep *Report) error {
	tShort, tLong := e19Horizons(p)
	curveShort, curveLong := rep.Floats("p_quorum_short"), rep.Floats("p_quorum_long")
	// Sharpness: difference between detection at 2x and at 0.5x the
	// threshold; longer horizons should separate better.
	sharpShort := curveShort[5] - curveShort[1]
	sharpLong := curveLong[5] - curveLong[1]
	rep.SetMetric("sharp_short", sharpShort)
	rep.SetMetric("sharp_long", sharpLong)
	rep.SetMetric("low_long", curveLong[0])
	rep.SetMetric("high_long", curveLong[6])
	rep.Notef("paper: longer horizons sharpen the quorum decision; measured separation (P[2x]-P[0.5x]) %.3f (t=%d) -> %.3f (t=%d)", sharpShort, tShort, sharpLong, tLong)
	return nil
}

// runE20 steps one world through internal/tasks' allocation epochs,
// each epoch's encounter-rate estimates feeding the next epoch's task
// switches — a feedback loop no single Spec run expresses.
func runE20(p Params, rep *Report) error {
	g := topology.MustTorus(2, 16)
	agents := pick(p, 240, 120)
	w, err := sim.NewWorld(sim.Config{Graph: g, NumAgents: agents, Seed: p.Seed})
	if err != nil {
		return err
	}
	cfg := tasks.Config{
		Targets:        []float64{0.5, 0.3, 0.2},
		Epochs:         pick(p, 30, 12),
		RoundsPerEpoch: pick(p, 100, 50),
		Seed:           p.Seed + 1,
	}
	res, err := tasks.Run(w, cfg)
	if err != nil {
		return err
	}
	tb := rep.Table("epoch", "task1", "task2", "task3", "L1 to target")
	for e, alloc := range res.History {
		if e%5 != 0 && e != len(res.History)-1 {
			continue
		}
		l1 := 0.0
		for k, f := range alloc {
			l1 += math.Abs(f - cfg.Targets[k])
		}
		tb.AddRow(e, alloc[0], alloc[1], alloc[2], l1)
	}
	initL1 := 0.0
	for k, f := range res.History[0] {
		initL1 += math.Abs(f - cfg.Targets[k])
	}
	rep.SetMetric("final_l1", res.FinalL1)
	rep.SetMetric("initial_l1", initL1)
	rep.SetMetric("switches", float64(res.Switches))
	rep.Notef("paper motivation: encounter rates alone steer the colony to the target mix; L1 distance %.3f -> %.3f over %d epochs (%d switches)", initL1, res.FinalL1, cfg.Epochs, res.Switches)
	return nil
}

// E21 compares token and independent sampling of a sensor field
// (internal/sensors); it estimates no density, so it runs no Spec.

// e21Graph builds the named E21 topology.
func e21Graph(name string) (topology.Graph, error) {
	switch name {
	case "ring":
		return topology.NewRing(4096)
	case "torus2d":
		return topology.MustTorus(2, 64), nil
	case "torus3d":
		return topology.MustTorus(3, 16), nil
	}
	return nil, fmt.Errorf("E21: unknown topology %q", name)
}

// cellE21 compares token vs independent sampling RMSE at one
// (topology, horizon) point.
func cellE21(p Params, pt Point) ([]results.Cell, error) {
	t := pt.Int("steps")
	trials := pick(p, 6000, 1500)
	g, err := e21Graph(pt.String("topo"))
	if err != nil {
		return nil, err
	}
	f := sensors.BernoulliField(0.5, p.Seed+77)
	s := rng.New(p.Seed)
	cmp := sensors.CompareRMSE(g, f, t, trials, s.Split(uint64(t)))
	return []results.Cell{
		results.Float(cmp.TokenRMSE).WithN(trials),
		results.Float(cmp.IndependentRMSE).WithN(trials),
		results.Float(cmp.Inflation),
	}, nil
}

func runE21(p Params, rep *Report) error {
	// The last horizon of each topology wins: metrics record the
	// longest-t inflation.
	inflations := rep.Floats("inflation")
	for i, topo := range rep.Labels("topo") {
		rep.SetMetric("inflation_"+topo, inflations[i])
	}
	rep.Notef("paper: on the 2-D grid the memoryless token pays only a log-factor penalty (Cor. 15); the ring pays sqrt(t)-like, 3-D almost nothing")
	return nil
}

func runE22(p Params, rep *Report) error {
	// Agents clustered in 10% of a torus; global density estimation
	// from encounter rates is biased upward for cluster members, and
	// short-horizon estimates reflect the local density instead.
	g := topology.MustTorus(2, 60) // A = 3600
	agents := pick(p, 181, 91)
	t := pick(p, 1000, 250)
	trials := pick(p, 6, 3)
	clusteredRes, err := densityTrials(p, "E22-clustered", trials, p.Seed, func(tr Trial) (*antdensity.Spec, error) {
		w, err := sim.NewWorld(sim.Config{
			Graph:     g,
			NumAgents: agents,
			Seed:      tr.Seed,
			Placement: sim.ClusteredPlacement(0.1),
		})
		if err != nil {
			return nil, err
		}
		return antdensity.DensitySpec(antdensity.WithWorld(w), antdensity.WithSeed(tr.Seed), antdensity.WithRounds(t)), nil
	})
	if err != nil {
		return err
	}
	inside := clusteredRes.Samples()
	globalTruth := clusteredRes.Value("density")
	// Local density inside the cluster: all agents in 10% of the
	// nodes, so the in-cluster density is ~10x the global one
	// (diffusion spreads the cluster over t rounds, lowering it).
	localTruth := globalTruth / 0.1
	meanEst := stats.Mean(inside)
	tb := rep.Table("quantity", "value")
	tb.AddRow("global density d", globalTruth)
	tb.AddRow("initial in-cluster density", localTruth)
	tb.AddRow("mean estimate (clustered, t="+strconv.Itoa(t)+")", meanEst)
	tb.AddRow("ratio estimate/global", meanEst/globalTruth)

	// Control: uniform placement recovers the global density.
	uniformRes, err := algorithm1Trials(p, g, agents, t, trials, p.Seed+500)
	if err != nil {
		return err
	}
	meanUniform := uniformRes.Mean()
	tb.AddRow("mean estimate (uniform)", meanUniform)
	tb.AddRow("ratio uniform/global", meanUniform/globalTruth)
	rep.SetMetric("clustered_over_global", meanEst/globalTruth)
	rep.SetMetric("uniform_over_global", meanUniform/globalTruth)
	rep.Notef("paper (Sections 2.1.1, 6.1): uniform placement is what licenses global estimation; clustered agents measure their (higher) local density instead")
	return nil
}
