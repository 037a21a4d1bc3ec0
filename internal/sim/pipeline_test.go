package sim

import (
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// countAccumulator is a minimal fixed-horizon observer: it sums every
// agent's counts, mirroring Algorithm 1's counting loop.
type countAccumulator struct {
	totals []int64
	rounds int
}

func (c *countAccumulator) Observe(r *Round) Signal {
	for i, v := range r.Counts() {
		c.totals[i] += int64(v)
	}
	c.rounds++
	return Continue
}

func TestRunMatchesScalarLoop(t *testing.T) {
	// The pipeline must reproduce, bit for bit, the scalar
	// Step-then-Count-per-agent loop it replaces, on both index
	// representations.
	for _, occ := range []OccupancyIndex{OccDense, OccSparse} {
		g := topology.MustTorus(2, 16)
		w1 := MustWorld(Config{Graph: g, NumAgents: 96, Seed: 3, Occupancy: occ})
		w2 := MustWorld(Config{Graph: g, NumAgents: 96, Seed: 3, Occupancy: occ})
		const rounds = 40
		acc := &countAccumulator{totals: make([]int64, 96)}
		if got := Run(w1, rounds, acc); got != rounds {
			t.Fatalf("occ=%v: Run executed %d rounds, want %d", occ, got, rounds)
		}
		want := make([]int64, 96)
		for r := 0; r < rounds; r++ {
			w2.Step()
			for i := 0; i < 96; i++ {
				want[i] += int64(w2.Count(i))
			}
		}
		for i := range want {
			if acc.totals[i] != want[i] {
				t.Fatalf("occ=%v agent %d: pipeline total %d != scalar %d", occ, i, acc.totals[i], want[i])
			}
		}
	}
}

func TestCountsIntoMatchAllVariants(t *testing.T) {
	// Property: the Into snapshots agree exactly with their allocating
	// twins and with the comparison-based sorted ablation, for tagged
	// and grouped populations on both index representations, flat and
	// sharded. 1000 agents on 64 nodes collide densely, and put more
	// than one 256-slot count block (shardCountsRange) in a slab.
	const agents = 1000
	for _, shards := range []int{1, 3} {
		for _, occ := range []OccupancyIndex{OccDense, OccSparse} {
			g := topology.MustTorus(2, 8)
			w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 11, Occupancy: occ, Shards: shards})
			if w.Shards() != shards {
				t.Fatalf("world has %d shards, want %d", w.Shards(), shards)
			}
			for i := 0; i < agents; i += 3 {
				w.SetTagged(i, true)
			}
			for i := 0; i < agents; i += 4 {
				w.SetGroup(i, 2)
			}
			bufC, bufT, bufG := make([]int, agents), make([]int, agents), make([]int, agents)
			for round := 0; round < 10; round++ {
				w.Step()
				checks := []struct {
					name         string
					into, sorted []int
				}{
					{"counts", w.CountsAllInto(bufC), w.CountsAllSorted()},
					{"tagged", w.CountsTaggedAllInto(bufT), w.CountsTaggedAllSorted()},
					{"group", w.CountsInGroupInto(2, bufG), w.CountsInGroupAllSorted(2)},
				}
				for _, c := range checks {
					for i := range c.sorted {
						if c.into[i] != c.sorted[i] {
							t.Fatalf("shards=%d occ=%v round %d %s agent %d: Into %d != sorted %d",
								shards, occ, round, c.name, i, c.into[i], c.sorted[i])
						}
					}
				}
			}
		}
	}
}

func TestCountsIntoPanicsOnShortDst(t *testing.T) {
	w := MustWorld(Config{Graph: topology.MustTorus(2, 4), NumAgents: 5, Seed: 1})
	for name, f := range map[string]func(){
		"CountsAllInto":       func() { w.CountsAllInto(make([]int, 4)) },
		"CountsTaggedAllInto": func() { w.CountsTaggedAllInto(make([]int, 4)) },
		"CountsInGroupInto":   func() { w.CountsInGroupInto(1, make([]int, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a short dst", name)
				}
			}()
			f()
		}()
	}
}

func TestRoundGroupCountsMultipleGroupsSameRound(t *testing.T) {
	// Reading two groups in one Observe call must return two live
	// slices: the first group's data survives the second request.
	w := MustWorld(Config{Graph: topology.MustTorus(2, 6), NumAgents: 60, Seed: 8})
	for i := 0; i < 30; i++ {
		w.SetGroup(i, 2)
	}
	for i := 30; i < 60; i++ {
		w.SetGroup(i, 3)
	}
	obs := ObserverFunc(func(r *Round) Signal {
		a := r.GroupCounts(2)
		b := r.GroupCounts(3)
		wantA := r.World().CountsInGroupAll(2)
		wantB := r.World().CountsInGroupAll(3)
		for i := range wantA {
			if a[i] != wantA[i] || b[i] != wantB[i] {
				t.Fatalf("round %d agent %d: group snapshots diverged (a %d vs %d, b %d vs %d)",
					r.Index(), i, a[i], wantA[i], b[i], wantB[i])
			}
		}
		return Continue
	})
	Run(w, 5, obs)
}

func TestRunObserverOrderInvariance(t *testing.T) {
	// The determinism invariant: listing observers in any order yields
	// identical per-observer results, because observers cannot
	// influence stepping or snapshots.
	results := func(seed uint64, swap bool) ([]int64, []int64) {
		w := MustWorld(Config{Graph: topology.MustTorus(2, 10), NumAgents: 50, Seed: seed})
		w.SetTagged(7, true)
		a := &countAccumulator{totals: make([]int64, 50)}
		b := &countAccumulator{totals: make([]int64, 50)}
		if swap {
			Run(w, 30, b, a)
		} else {
			Run(w, 30, a, b)
		}
		return a.totals, b.totals
	}
	a1, b1 := results(5, false)
	a2, b2 := results(5, true)
	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] {
			t.Fatalf("agent %d: observer order changed results (a %d vs %d, b %d vs %d)",
				i, a1[i], a2[i], b1[i], b2[i])
		}
	}
}

func TestRunEarlyStopSemantics(t *testing.T) {
	w := MustWorld(Config{Graph: topology.MustTorus(2, 10), NumAgents: 20, Seed: 1})
	// One observer stops at round 5, the other at round 12: the run
	// ends when the *last* observer stops, and a stopped observer sees
	// no further rounds.
	seenA, seenB := 0, 0
	a := ObserverFunc(func(r *Round) Signal {
		seenA++
		if r.Index() >= 5 {
			return Stop
		}
		return Continue
	})
	b := ObserverFunc(func(r *Round) Signal {
		seenB++
		if r.Index() >= 12 {
			return Stop
		}
		return Continue
	})
	if got := Run(w, 100, a, b); got != 12 {
		t.Errorf("Run executed %d rounds, want 12", got)
	}
	if seenA != 5 || seenB != 12 {
		t.Errorf("observer rounds seen = (%d, %d), want (5, 12)", seenA, seenB)
	}
}

func TestRunDeactivationStopsRun(t *testing.T) {
	const agents = 8
	w := MustWorld(Config{Graph: topology.MustTorus(2, 10), NumAgents: agents, Seed: 2})
	// Retire one agent per round; the run must end at round 8 without
	// any observer returning Stop, and the mask must shrink monotonely.
	obs := ObserverFunc(func(r *Round) Signal {
		i := r.Index() - 1
		if !r.Active(i) {
			t.Fatalf("agent %d inactive before deactivation", i)
		}
		r.Deactivate(i)
		r.Deactivate(i) // idempotent
		if want := agents - r.Index(); r.NumActive() != want {
			t.Fatalf("round %d: NumActive = %d, want %d", r.Index(), r.NumActive(), want)
		}
		return Continue
	})
	if got := Run(w, 100, obs); got != agents {
		t.Errorf("Run executed %d rounds, want %d", got, agents)
	}
}

func TestRunZeroRoundsAndNegativePanic(t *testing.T) {
	w := MustWorld(Config{Graph: topology.MustTorus(2, 4), NumAgents: 3, Seed: 1})
	if got := Run(w, 0); got != 0 {
		t.Errorf("Run(w, 0) = %d, want 0", got)
	}
	if w.Round() != 0 {
		t.Errorf("world stepped during a zero-round run")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative rounds did not panic")
		}
	}()
	Run(w, -1)
}

func TestRunWithoutObserversJustSteps(t *testing.T) {
	w := MustWorld(Config{Graph: topology.MustTorus(2, 4), NumAgents: 3, Seed: 1})
	if got := Run(w, 7); got != 7 {
		t.Errorf("observerless Run executed %d rounds, want 7", got)
	}
	if w.Round() != 7 {
		t.Errorf("world at round %d, want 7", w.Round())
	}
}

func TestWorldExplicitStateConfig(t *testing.T) {
	g := topology.MustTorus(2, 6)
	// Positions + Streams supplied externally must reproduce a
	// seed-derived world exactly: same positions, same trajectory.
	w1 := MustWorld(Config{Graph: g, NumAgents: 10, Seed: 4})
	root := rng.New(4)
	streams := make([]rng.Stream, 10)
	for i := range streams {
		streams[i] = root.SplitValue(uint64(i))
		// Consume the placement draw exactly as UniformPlacement does.
		topology.RandomNode(g, &streams[i])
	}
	w2 := MustWorld(Config{Graph: g, NumAgents: 10, Positions: w1.Positions(), Streams: streams})
	for r := 0; r < 20; r++ {
		w1.Step()
		w2.Step()
	}
	for i := 0; i < 10; i++ {
		if w1.Pos(i) != w2.Pos(i) {
			t.Fatalf("agent %d diverged: seed-derived %d vs explicit-state %d", i, w1.Pos(i), w2.Pos(i))
		}
	}
	// Length validation.
	if _, err := NewWorld(Config{Graph: g, NumAgents: 3, Positions: []int64{0}}); err == nil {
		t.Error("short Positions accepted")
	}
	if _, err := NewWorld(Config{Graph: g, NumAgents: 3, Streams: make([]rng.Stream, 1)}); err == nil {
		t.Error("short Streams accepted")
	}
	// Out-of-range explicit positions are rejected.
	if _, err := NewWorld(Config{Graph: g, NumAgents: 1, Positions: []int64{g.NumNodes()}, Streams: make([]rng.Stream, 1)}); err == nil {
		t.Error("out-of-range Positions accepted")
	}
}
