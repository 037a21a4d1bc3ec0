package main

import (
	"flag"
	"fmt"
	"os"

	"antdensity"
	"antdensity/internal/adversary"
	"antdensity/internal/experiments"
	"antdensity/internal/expfmt"
	"antdensity/internal/quorum"
	"antdensity/internal/results"
	"antdensity/internal/rng"
	"antdensity/internal/sensors"
	"antdensity/internal/sim"
	"antdensity/internal/stats"
	"antdensity/internal/tasks"
	"antdensity/internal/topology"
)

// adversaryFlagUsage documents the shared -adversary grammar.
const adversaryFlagUsage = "adversarial agents as kind:fraction[:param][:seed] (kinds: inflate, deflate, random, stall, crash)"

// parseAdversaryFlag translates a -adversary flag value into the
// Spec's adversary block; "" means none. Param and seed 0 keep their
// Spec meanings (strategy default, seed derived from the run seed),
// and Spec validation rejects a kind the run cannot host.
func parseAdversaryFlag(val string) (*antdensity.AdversarySpec, error) {
	if val == "" {
		return nil, nil
	}
	cfg, err := adversary.ParseFlag(val)
	if err != nil {
		return nil, err
	}
	return &antdensity.AdversarySpec{Kind: cfg.Kind.String(), Fraction: cfg.Fraction, Param: cfg.Param, Seed: cfg.Seed}, nil
}

// density is the density n agents have on g from one agent's view:
// the other n-1 agents per node (sim.World.Density).
func density(n int, g antdensity.Graph) float64 {
	return float64(n-1) / float64(g.NumNodes())
}

// addDetectionRows renders the dishonesty detector's verdicts from an
// adversarial run's metrics.
func addDetectionRows(tb *expfmt.Table, m results.Metrics) {
	tb.AddRow("adversarial agents", int(m["adversaries"]))
	tb.AddRow("detector TPR", m["detect_tpr"])
	tb.AddRow("detector FPR", m["detect_fpr"])
	tb.AddRow("flagged agents", int(m["detect_flagged"]))
}

// cmdQuorum runs a quorum-sensing decision: agents at the given
// density vote on whether it exceeds the threshold. With -adaptive,
// each agent instead runs the anytime confidence-band detector and
// stops as soon as its band clears the threshold (Section 6.2's
// early-exit usage), reporting the stopping-time distribution.
func cmdQuorum(args []string) error {
	fs := flag.NewFlagSet("quorum", flag.ContinueOnError)
	side := fs.Int64("side", 20, "torus side length")
	agents := fs.Int("agents", 41, "number of agents")
	threshold := fs.Float64("threshold", 0.1, "quorum density threshold theta")
	eps := fs.Float64("eps", 0.25, "detection margin")
	delta := fs.Float64("delta", 0.05, "failure probability")
	seed := fs.Uint64("seed", 1, "random seed")
	adaptive := fs.Bool("adaptive", false, "anytime mode: per-agent early stopping instead of the fixed theta-sized horizon")
	maxRounds := fs.Int("max-rounds", 40000, "adaptive-mode round budget")
	shards := fs.Int("shards", 0, "spatial shards for the world (0 = auto); results are identical for any value")
	advFlag := fs.String("adversary", "", adversaryFlagUsage)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The theta-sized horizon is Theorem 1's bound, defined only on
	// these ranges; -delta is checked here too because a Spec reads
	// Delta 0 as its 0.05 default.
	if !(*eps > 0 && *eps < 1) {
		return fmt.Errorf("quorum: -eps must be in (0, 1), got %v", *eps)
	}
	if !(*delta > 0 && *delta < 1) {
		return fmt.Errorf("quorum: -delta must be in (0, 1), got %v", *delta)
	}
	if !(*threshold > 0 && *threshold <= 1) {
		return fmt.Errorf("quorum: -threshold must be in (0, 1], got %v", *threshold)
	}
	t := quorum.DetectionRounds(*threshold, *eps, *delta, 0.05)
	g, err := antdensity.NewTorus2D(*side)
	if err != nil {
		return err
	}
	adv, err := parseAdversaryFlag(*advFlag)
	if err != nil {
		return err
	}
	opts := []antdensity.SpecOption{antdensity.WithGraph(g), antdensity.WithAgents(*agents),
		antdensity.WithSeed(*seed), antdensity.WithShards(*shards)}
	var spec *antdensity.Spec
	if *adaptive {
		spec = antdensity.AdaptiveQuorumSpec(*threshold, append(opts, antdensity.WithRounds(*maxRounds),
			antdensity.WithConfidence(*delta), antdensity.WithBandConstant(0.6))...)
	} else {
		spec = antdensity.QuorumSpec(*threshold, append(opts, antdensity.WithRounds(t))...)
	}
	spec.Adversary = adv
	out, res, final, err := experiments.RunSpec(spec)
	if err != nil {
		return err
	}
	m := res.Metrics
	tb := expfmt.NewTable("quantity", "value")
	tb.AddRow("true density d", density(*agents, g))
	tb.AddRow("threshold theta", *threshold)
	if *adaptive {
		ar := out.Anytime
		stops := make([]float64, len(ar.StopRound))
		for i, r := range ar.StopRound {
			stops[i] = float64(r)
		}
		tb.AddRow("mode", "adaptive (anytime bands)")
		tb.AddRow("fixed-t horizon (theta-sized)", t)
		tb.AddRow("rounds executed", ar.Rounds)
		tb.AddRow("mean stop round", stats.Mean(stops))
		tb.AddRow("p90 stop round", stats.Quantile(stops, 0.9))
		tb.AddRow("undecided agents", int(m["undecided"]))
	} else {
		tb.AddRow("detection rounds t (theta-sized)", t)
	}
	tb.AddRow("fraction voting quorum", m["vote_fraction"])
	tb.AddRow("majority verdict", m["majority"] == 1)
	if adv != nil {
		// The terminal snapshot holds every agent's final estimate in
		// both modes.
		tb.AddRow("trimmed vote fraction", quorum.TrimmedVoteFraction(final.Estimates, *threshold, 0.25))
		tb.AddRow("trimmed majority verdict", quorum.TrimmedMajority(final.Estimates, *threshold, 0.25))
		addDetectionRows(tb, m)
	}
	return tb.Render(os.Stdout)
}

// cmdAllocate runs the task-allocation dynamic and prints the
// trajectory.
func cmdAllocate(args []string) error {
	fs := flag.NewFlagSet("allocate", flag.ContinueOnError)
	agents := fs.Int("agents", 240, "number of agents")
	epochs := fs.Int("epochs", 30, "estimate/switch epochs")
	rounds := fs.Int("rounds", 100, "random-walk rounds per epoch")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g := topology.MustTorus(2, 16)
	w, err := sim.NewWorld(sim.Config{Graph: g, NumAgents: *agents, Seed: *seed})
	if err != nil {
		return err
	}
	cfg := tasks.Config{
		Targets:        []float64{0.5, 0.3, 0.2},
		Epochs:         *epochs,
		RoundsPerEpoch: *rounds,
		Seed:           *seed + 1,
	}
	res, err := tasks.Run(w, cfg)
	if err != nil {
		return err
	}
	tb := expfmt.NewTable("epoch", "task1 (goal 0.5)", "task2 (goal 0.3)", "task3 (goal 0.2)")
	for e, alloc := range res.History {
		tb.AddRow(e, alloc[0], alloc[1], alloc[2])
	}
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("final L1 distance to target: %.4f (%d switches)\n", res.FinalL1, res.Switches)
	return nil
}

// cmdSensors compares token sampling against independent sampling.
func cmdSensors(args []string) error {
	fs := flag.NewFlagSet("sensors", flag.ContinueOnError)
	side := fs.Int64("side", 64, "torus side length")
	steps := fs.Int("steps", 256, "token walk length")
	trials := fs.Int("trials", 4000, "Monte Carlo trials")
	p := fs.Float64("p", 0.5, "Bernoulli field rate")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := topology.NewTorus(2, *side)
	if err != nil {
		return err
	}
	f := sensors.BernoulliField(*p, *seed+77)
	cmp := sensors.CompareRMSE(g, f, *steps, *trials, rng.New(*seed))
	tb := expfmt.NewTable("quantity", "value")
	tb.AddRow("field mean (exact)", sensors.FieldMean(g, f))
	tb.AddRow("token RMSE", cmp.TokenRMSE)
	tb.AddRow("independent RMSE", cmp.IndependentRMSE)
	tb.AddRow("inflation (token/indep)", cmp.Inflation)
	return tb.Render(os.Stdout)
}
