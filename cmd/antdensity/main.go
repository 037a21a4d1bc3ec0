// Command antdensity is the reproduction driver: it lists and runs
// the paper's experiments, and exposes the estimators directly for
// ad-hoc exploration.
//
// Usage:
//
//	antdensity list
//	antdensity run [-seed N] [-quick] [-workers W] [-format text|json|csv] [-cpuprofile F] [-memprofile F] [-trace F] <exp-id>|all
//	antdensity sweep <exp-id> [-seed N] [-quick] [-workers W] [-format text|json|csv] [-axis name=v1,v2,...] [-axis name=lo:hi:step] [-cpuprofile F] [-memprofile F] [-trace F]
//	antdensity estimate [-dims K] [-side L] [-agents N] [-rounds T] [-seed N] [-cpuprofile F] [-memprofile F] [-trace F]
//	antdensity netsize  [-graph ba|er|ws|torus3] [-nodes N] [-walkers W] [-steps T] [-seed N]
//	antdensity walk     [-topo torus2d|ring|torus3d|hypercube] [-steps M] [-trials K] [-seed N]
//	antdensity quorum   [-side L] [-agents N] [-threshold T] [-adaptive] [-max-rounds M] [-seed N]
//	antdensity serve    [-addr A] [-workers N] [-data-dir D] [-queue-limit Q] [-rate R] [-burst B] [-no-cache]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"antdensity"
	"antdensity/internal/core"
	"antdensity/internal/experiments"
	"antdensity/internal/expfmt"
	"antdensity/internal/results"
	"antdensity/internal/rng"
	"antdensity/internal/sim"
	"antdensity/internal/stats"
	"antdensity/internal/walk"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		// Errors from the root package already carry the prefix.
		msg := err.Error()
		if !strings.HasPrefix(msg, "antdensity: ") {
			msg = "antdensity: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return cmdList()
	case "run":
		return cmdRun(args[1:])
	case "sweep":
		return cmdSweep(args[1:])
	case "estimate":
		return cmdEstimate(args[1:])
	case "netsize":
		return cmdNetsize(args[1:])
	case "walk":
		return cmdWalk(args[1:])
	case "quorum":
		return cmdQuorum(args[1:])
	case "allocate":
		return cmdAllocate(args[1:])
	case "sensors":
		return cmdSensors(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  antdensity list                          list registered experiments
  antdensity run [flags] <exp-id>|all      run reproduction experiments (-format text|json|csv)
  antdensity sweep <exp-id> [flags]        run a parameter sweep (-axis name=v1,v2 | name=lo:hi:step)
  antdensity estimate [flags]              run Algorithm 1 on a torus
  antdensity netsize [flags]               estimate a synthetic network's size
  antdensity walk [flags]                  measure re-collision curves
  antdensity quorum [flags]                quorum-sensing decision (Sec. 6.2)
  antdensity allocate [flags]              task-allocation dynamic (Sec. 1)
  antdensity sensors [flags]               token vs independent sensor sampling
  antdensity serve [flags]                 HTTP service over the v2 Run/Manager API
                                           (-data-dir, -queue-limit, -rate, -no-cache)`)
}

func cmdList() error {
	tb := expfmt.NewTable("id", "title", "claim")
	for _, e := range experiments.All() {
		tb.AddRow(e.ID, e.Title, e.Claim)
	}
	return tb.Render(os.Stdout)
}

func cmdRun(args []string) (err error) {
	// Accept experiment IDs before the flags (antdensity run E01
	// -format=json) as well as after them.
	var leadingIDs []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		leadingIDs, args = append(leadingIDs, args[0]), args[1:]
	}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "random seed")
	quick := fs.Bool("quick", false, "reduced trial counts")
	workers := fs.Int("workers", 0, "trial-runner goroutines (0 = all CPUs); results are identical for any value")
	shards := fs.Int("shards", 0, "spatial shards per world (0 = auto); results are identical for any value")
	format := fs.String("format", "text", "output format: text, json, or csv")
	prof := addProfileFlags(fs, "the selected runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sim.SetDefaultShards(*shards); err != nil {
		return fmt.Errorf("run: -shards: %w", err)
	}
	f, err := parseFormat(*format)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); e != nil && err == nil {
			err = e
		}
	}()
	ids := append(leadingIDs, fs.Args()...)
	if len(ids) == 0 {
		return fmt.Errorf("run: need an experiment id or 'all' (available: %s)",
			strings.Join(experiments.IDs(), ", "))
	}
	var selected []experiments.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		selected = experiments.All()
	} else {
		for _, id := range ids {
			e, err := resolveExperiment(id)
			if err != nil {
				return fmt.Errorf("run: %w", err)
			}
			selected = append(selected, e)
		}
	}
	if f == "csv" && len(selected) > 1 {
		return fmt.Errorf("run: -format=csv supports a single experiment id (got %d)", len(selected))
	}
	p := experiments.Params{Seed: *seed, Quick: *quick, Out: os.Stdout, Workers: *workers}
	switch f {
	case "text":
		for _, e := range selected {
			fmt.Printf("=== %s: %s\n    %s\n", e.ID, e.Title, e.Claim)
			if _, err := e.Run(p); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Println()
		}
		return nil
	case "csv":
		res, err := selected[0].RunResult(p)
		if err != nil {
			return fmt.Errorf("%s: %w", selected[0].ID, err)
		}
		return results.WriteCSV(os.Stdout, res)
	default: // json: one object for a single experiment, an array otherwise
		var all []*results.Result
		for _, e := range selected {
			res, err := e.RunResult(p)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			all = append(all, res)
		}
		if len(all) == 1 {
			return results.WriteJSON(os.Stdout, all[0])
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(all)
	}
}

func cmdEstimate(args []string) (err error) {
	fs := flag.NewFlagSet("estimate", flag.ContinueOnError)
	dims := fs.Int("dims", 2, "torus dimensions")
	side := fs.Int64("side", 100, "torus side length")
	agents := fs.Int("agents", 1001, "number of agents")
	rounds := fs.Int("rounds", 1000, "rounds of Algorithm 1")
	seed := fs.Uint64("seed", 1, "random seed")
	shards := fs.Int("shards", 0, "spatial shards for the world (0 = auto); results are identical for any value")
	advFlag := fs.String("adversary", "", adversaryFlagUsage)
	prof := addProfileFlags(fs, "the estimation run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *agents < 2 {
		return fmt.Errorf("estimate: -agents must be at least 2 (an agent estimates the density of the others), got %d", *agents)
	}
	g, err := antdensity.NewTorus(*dims, *side)
	if err != nil {
		return err
	}
	d := density(*agents, g)
	if d > 1 {
		return fmt.Errorf("estimate: -agents %d on %d nodes is density %v, above 1 (use fewer -agents or a larger -side)", *agents, g.NumNodes(), d)
	}
	adv, err := parseAdversaryFlag(*advFlag)
	if err != nil {
		return err
	}
	spec := antdensity.DensitySpec(antdensity.WithGraph(g), antdensity.WithAgents(*agents),
		antdensity.WithRounds(*rounds), antdensity.WithSeed(*seed), antdensity.WithShards(*shards))
	spec.Adversary = adv
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); e != nil && err == nil {
			err = e
		}
	}()
	out, res, _, err := experiments.RunSpec(spec)
	if err != nil {
		return err
	}
	ests := out.Estimates
	sum := stats.Summarize(ests)
	tb := expfmt.NewTable("quantity", "value")
	tb.AddRow("true density d", d)
	tb.AddRow("agents", *agents)
	tb.AddRow("rounds t", *rounds)
	tb.AddRow("mean estimate", sum.Mean)
	tb.AddRow("median estimate", sum.Median)
	tb.AddRow("std", sum.StdDev)
	tb.AddRow("mean |rel err|", stats.Mean(stats.RelErrors(ests, d)))
	tb.AddRow("Thm 1 eps (c1=0.35, delta=0.05)", core.TheoremOneEpsilon(*rounds, d, 0.05, 0.35))
	if adv != nil {
		tb.AddRow("trimmed mean estimate", res.Metrics["estimate_trimmed"])
		tb.AddRow("median-of-means estimate", res.Metrics["estimate_mom"])
		addDetectionRows(tb, res.Metrics)
	}
	return tb.Render(os.Stdout)
}

// cmdNetsize estimates a synthetic network's size by running a
// NetworkSizeSpec on a graph built from the -graph family's recipe.
func cmdNetsize(args []string) error {
	fs := flag.NewFlagSet("netsize", flag.ContinueOnError)
	kind := fs.String("graph", "ba", "graph family: ba, er, ws, torus3")
	nodes := fs.Int64("nodes", 5000, "node count")
	walkers := fs.Int("walkers", 80, "number of random walks")
	steps := fs.Int("steps", 200, "collision-counting rounds")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var gr graphRequest
	switch *kind {
	case "ba":
		gr = graphRequest{Kind: "ba", Nodes: *nodes, Degree: 3, Seed: *seed}
	case "er":
		gr = graphRequest{Kind: "er", Nodes: *nodes, Degree: 8, Seed: *seed}
	case "ws":
		gr = graphRequest{Kind: "ws", Nodes: *nodes, Degree: 3, Seed: *seed}
	case "torus3":
		sideLen := int64(1)
		for sideLen*sideLen*sideLen < *nodes {
			sideLen++
		}
		if sideLen%2 == 0 {
			sideLen++ // odd side keeps the torus non-bipartite
		}
		gr = graphRequest{Kind: "torus", Dims: 3, Side: sideLen}
	default:
		return fmt.Errorf("netsize: unknown graph family %q", *kind)
	}
	g, err := buildGraph(gr)
	if err != nil {
		return err
	}
	out, _, _, err := experiments.RunSpec(antdensity.NetworkSizeSpec(antdensity.WithGraph(g),
		antdensity.WithWalkers(*walkers), antdensity.WithRounds(*steps), antdensity.WithSeed(*seed)))
	if err != nil {
		return err
	}
	res := out.NetworkSize
	tb := expfmt.NewTable("quantity", "value")
	tb.AddRow("graph", *kind)
	tb.AddRow("true |V|", g.NumNodes())
	tb.AddRow("estimated |V|", res.Size)
	tb.AddRow("walkers", *walkers)
	tb.AddRow("steps", *steps)
	tb.AddRow("link queries", res.Queries)
	tb.AddRow("1/degAvg estimate", res.InvAvgDegree)
	return tb.Render(os.Stdout)
}

// walkGraphs are the recipes behind walk's -topo values.
var walkGraphs = map[string]graphRequest{
	"torus2d":   {Kind: "torus2d", Side: 1024},
	"ring":      {Kind: "ring", Nodes: 1 << 20},
	"torus3d":   {Kind: "torus", Dims: 3, Side: 101},
	"hypercube": {Kind: "hypercube", Bits: 16},
}

func cmdWalk(args []string) error {
	fs := flag.NewFlagSet("walk", flag.ContinueOnError)
	topo := fs.String("topo", "torus2d", "topology: torus2d, ring, torus3d, hypercube")
	steps := fs.Int("steps", 128, "maximum step count m")
	trials := fs.Int("trials", 50000, "Monte Carlo trials")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	gr, ok := walkGraphs[*topo]
	if !ok {
		return fmt.Errorf("walk: unknown topology %q", *topo)
	}
	g, err := buildGraph(gr)
	if err != nil {
		return err
	}
	s := rng.New(*seed)
	curve := walk.RecollisionCurve(g, 0, *steps, *trials, s)
	bt := walk.SumCurve(curve)
	tb := expfmt.NewTable("m", "P[re-collision]", "m*P", "B(m)")
	for m := 1; m <= *steps; m *= 2 {
		tb.AddRow(m, curve[m], float64(m)*curve[m], bt[m])
	}
	return tb.Render(os.Stdout)
}
