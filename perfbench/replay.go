package main

import (
	"fmt"
	"math"

	"antdensity"
	"antdensity/internal/core"
	"antdensity/internal/netsize"
	"antdensity/internal/quorum"
	"antdensity/internal/rng"
	"antdensity/internal/sim"
	"antdensity/internal/topology"
)

// replayCounts carries the work one replay did, so span self times can
// be turned into per-result and per-agent-round figures.
type replayCounts struct {
	netsize     bool
	measured    float64 // agent-rounds under the sim.runner and sim.step spans
	agentRounds float64 // agent-rounds of the whole Spec run
	collisions  float64
	burnRounds  float64
	queries     float64
}

// report sets the replayed per-layer metrics. per returns a span
// name's self time per result in seconds; runS is antdensity.run_s.
func (c replayCounts) report(rep *report, per func(string) float64, runS float64) {
	step, count := per("sim.step"), per("sim.count")
	occupancy := per("sim.runner") - step
	rep.set("sim.step_ns", step/c.measured*1e9)
	rep.set("sim.occupancy_ns", occupancy/c.measured*1e9)
	rep.set("sim.count_ns", count/c.measured*1e9)
	rep.set("sim.step_frac", step/c.measured*c.agentRounds/runS)
	rep.set("sim.occupancy_frac", occupancy/runS)
	rep.set("sim.count_frac", count/runS)
	rep.set("sim.count_tagged_frac", per("sim.count_tagged")/runS)
	rep.set("core.observe_frac", per("core.observe")/runS)
	rep.set("rng.fill_frac", per("rng.fill")/runS)
	rep.set("topology.step_frac", (per("topology.steps")-per("rng.fill"))/runS)
	rep.set("topology.spectral_gap_frac", per("topology.spectral_gap")/runS)
	rep.set("netsize.burnin_frac", per("netsize.burnin")/runS)
	rep.set("netsize.count_frac", per("netsize.estimate_size")/runS)
	rep.set("sim.agent_rounds", c.agentRounds)
	rep.set("core.collisions", c.collisions)
	rep.set("netsize.burnin_rounds", c.burnRounds)
	rep.set("netsize.queries", c.queries)
}

// attributed is the part of antdensity.run_s the replayed layers
// account for, per result.
func (c replayCounts) attributed(per func(string) float64) float64 {
	if c.netsize {
		return per("netsize.new_walkers") + per("topology.spectral_gap") + per("topology.mixing_time") +
			per("netsize.burnin") + per("netsize.avg_degree") + per("netsize.estimate_size")
	}
	return per("sim.runner") + per("sim.count") + per("sim.count_tagged") + per("core.observe")
}

// replayTorus re-executes a torus Spec (density, quorum or property,
// without noise or adversaries) through public sim, core, rng and
// topology calls, with a span at each layer boundary, and checks that
// it reproduces the Spec run's output:
//
//   - a counted world stepped by sim.Runner, with a leading observer
//     timing the count queries and a wrapper timing the core observer;
//   - an uncounted twin world, timing World.Step alone;
//   - the step kernel at the same size: rng.Uint64nEach, and
//     Torus.RandomStepsInto (which makes the same fill itself).
func replayTorus(tr *tracer, id int, spec *antdensity.Spec, out antdensity.Output) (replayCounts, error) {
	torus, ok := spec.Graph.(*topology.Torus)
	if !ok {
		return replayCounts{}, fmt.Errorf("replay needs a torus, got %T", spec.Graph)
	}
	n, rounds := spec.NumAgents, spec.Rounds
	cfg := sim.Config{Graph: spec.Graph, NumAgents: n, Seed: spec.Seed}
	s := tr.begin(id, "sim.new_world")
	world, err := sim.NewWorld(cfg)
	tr.end(s)
	if err != nil {
		return replayCounts{}, err
	}
	for i := 0; i < spec.TaggedCount; i++ {
		world.SetTagged(i, true)
	}
	var observer sim.Observer
	var collisions func() []int64
	switch spec.Kind {
	case antdensity.KindDensity, antdensity.KindQuorum:
		co, err := core.NewCollisionObserver(n)
		if err != nil {
			return replayCounts{}, err
		}
		observer, collisions = co, co.Counts
	case antdensity.KindProperty:
		po, err := core.NewPropertyObserver(n)
		if err != nil {
			return replayCounts{}, err
		}
		observer = po
		collisions = func() []int64 {
			c := make([]int64, n)
			for i, d := range po.Result().Density {
				c[i] = int64(math.Round(d * float64(rounds)))
			}
			return c
		}
	default:
		return replayCounts{}, fmt.Errorf("replay does not cover kind %v", spec.Kind)
	}
	tagged := spec.Kind == antdensity.KindProperty
	lead := sim.ObserverFunc(func(r *sim.Round) sim.Signal {
		s := tr.begin(id, "sim.count")
		r.Counts()
		tr.end(s)
		if tagged {
			s = tr.begin(id, "sim.count_tagged")
			r.TaggedCounts()
			tr.end(s)
		}
		return sim.Continue
	})
	wrapped := sim.ObserverFunc(func(r *sim.Round) sim.Signal {
		s := tr.begin(id, "core.observe")
		sig := observer.Observe(r)
		tr.end(s)
		return sig
	})
	runner := sim.NewRunner(world, lead, wrapped)
	s = tr.begin(id, "sim.runner")
	for i := 0; i < rounds; i++ {
		runner.Step()
	}
	tr.end(s)

	s = tr.begin(id, "sim.new_world")
	twin, err := sim.NewWorld(cfg)
	tr.end(s)
	if err != nil {
		return replayCounts{}, err
	}
	s = tr.begin(id, "sim.step")
	for i := 0; i < rounds; i++ {
		twin.Step()
	}
	tr.end(s)

	// The kernel starts where sim.NewWorld leaves each agent: its
	// stream split from the seed, advanced by uniform placement.
	root := rng.New(spec.Seed)
	fill := make([]rng.Stream, n)
	steps := make([]rng.Stream, n)
	pos := make([]int64, n)
	for i := range fill {
		fill[i] = root.SplitValue(uint64(i))
		pos[i] = sim.UniformPlacement(i, spec.Graph, &fill[i])
		steps[i] = fill[i]
	}
	draws, scratch := make([]uint64, n), make([]uint64, n)
	bound := uint64(torus.CommonDegree())
	for i := 0; i < rounds; i++ {
		s := tr.begin(id, "rng.fill")
		rng.Uint64nEach(fill, bound, draws)
		tr.end(s)
		s = tr.begin(id, "topology.steps")
		torus.RandomStepsInto(pos, steps, scratch)
		tr.end(s)
	}

	if err := samePositions(world.Positions(), twin.Positions(), pos); err != nil {
		return replayCounts{}, err
	}
	counts := collisions()
	var total float64
	ests := make([]float64, n)
	for i, c := range counts {
		total += float64(c)
		ests[i] = float64(c) / float64(rounds)
	}
	switch spec.Kind {
	case antdensity.KindDensity:
		err = sameFloats("estimates", ests, out.Estimates)
	case antdensity.KindQuorum:
		votes := quorum.Votes(ests, spec.Threshold)
		for i := range votes {
			if votes[i] != out.Votes[i] {
				err = fmt.Errorf("vote %d differs", i)
				break
			}
		}
	case antdensity.KindProperty:
		pr := observer.(*core.PropertyObserver).Result()
		err = sameFloats("density", pr.Density, out.Property.Density)
		if err == nil {
			err = sameFloats("property density", pr.PropertyDensity, out.Property.PropertyDensity)
		}
		if err == nil {
			err = sameFloats("frequency", pr.Frequency, out.Property.Frequency)
		}
	}
	ar := float64(n) * float64(rounds)
	return replayCounts{measured: ar, agentRounds: ar, collisions: total}, err
}

// replayNetsize re-executes a netsize Spec through the netsize and
// topology calls netsize.EstimateContext makes, in its order, and then
// the walkers' world at the sim layer: an uncounted twin and a counted
// Runner over the counting steps.
func replayNetsize(tr *tracer, id int, spec *antdensity.Spec, out antdensity.Output) (replayCounts, error) {
	g, n := spec.Graph, spec.Walkers
	root := rng.New(spec.Seed)
	s := tr.begin(id, "netsize.new_walkers")
	w, err := netsize.NewWalkersAtSeed(g, n, spec.SeedVertex, root)
	tr.end(s)
	if err != nil {
		return replayCounts{}, err
	}
	s = tr.begin(id, "topology.spectral_gap")
	lambda := topology.SpectralGap(g, 300, root.Split(1<<32))
	tr.end(s)
	s = tr.begin(id, "topology.mixing_time")
	burn := topology.MixingTime(topology.NumEdges(g), lambda, 0.1)
	tr.end(s)
	s = tr.begin(id, "netsize.burnin")
	w.BurnIn(burn)
	tr.end(s)
	s = tr.begin(id, "netsize.avg_degree")
	inv := w.EstimateAvgDegree()
	tr.end(s)
	s = tr.begin(id, "netsize.estimate_size")
	res, err := w.EstimateSize(spec.Rounds, inv)
	tr.end(s)
	if err != nil {
		return replayCounts{}, err
	}
	if want := out.NetworkSize; *res != *want {
		return replayCounts{}, fmt.Errorf("replayed netsize result %+v, Spec run %+v", *res, *want)
	}

	pos := make([]int64, n)
	streams := make([]rng.Stream, n)
	for i := range pos {
		pos[i] = spec.SeedVertex
		streams[i] = root.SplitValue(uint64(i))
	}
	cfg := sim.Config{Graph: g, NumAgents: n, Positions: pos, Streams: streams}
	s = tr.begin(id, "sim.new_world")
	twin, err := sim.NewWorld(cfg)
	tr.end(s)
	if err != nil {
		return replayCounts{}, err
	}
	s = tr.begin(id, "sim.new_world")
	counted, err := sim.NewWorld(cfg)
	tr.end(s)
	if err != nil {
		return replayCounts{}, err
	}
	for i := 0; i < burn; i++ {
		twin.Step()
		counted.Step()
	}
	s = tr.begin(id, "sim.step")
	for i := 0; i < spec.Rounds; i++ {
		twin.Step()
	}
	tr.end(s)
	lead := sim.ObserverFunc(func(r *sim.Round) sim.Signal {
		s := tr.begin(id, "sim.count")
		r.Counts()
		tr.end(s)
		return sim.Continue
	})
	runner := sim.NewRunner(counted, lead)
	s = tr.begin(id, "sim.runner")
	for i := 0; i < spec.Rounds; i++ {
		runner.Step()
	}
	tr.end(s)
	if err := samePositions(twin.Positions(), counted.Positions(), w.Positions()); err != nil {
		return replayCounts{}, err
	}
	return replayCounts{
		netsize:     true,
		measured:    float64(n) * float64(spec.Rounds),
		agentRounds: float64(n) * float64(burn+spec.Rounds),
		burnRounds:  float64(burn),
		queries:     float64(res.Queries),
	}, nil
}

// samePositions checks that every replayed world ended where the
// first did.
func samePositions(first []int64, others ...[]int64) error {
	for k, o := range others {
		for i := range first {
			if o[i] != first[i] {
				return fmt.Errorf("replayed world %d: agent %d at %d, want %d", k+1, i, o[i], first[i])
			}
		}
	}
	return nil
}

// sameFloats compares bit patterns, so NaN equals NaN.
func sameFloats(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, Spec run %v", what, i, got[i], want[i])
		}
	}
	return nil
}
