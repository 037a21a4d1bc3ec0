package antdensity

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"antdensity/internal/core"
	"antdensity/internal/quorum"
	"antdensity/internal/sim"
)

// TestObserveMeasuresEachRoundOnce pins that a run captures every
// published round once: the stride observer publishes every
// SnapshotEvery-th round and the horizon, and only an early stop or a
// cancellation between strides makes the final round publish once
// more after the loop.
func TestObserveMeasuresEachRoundOnce(t *testing.T) {
	for _, tc := range []struct {
		name             string
		every, rounds    int
		stopAt, cancelAt int // 0: never
		want             []int
	}{
		{name: "snapshot every = rounds", every: 50, rounds: 50, want: []int{50}},
		{name: "every round", every: 1, rounds: 4, want: []int{1, 2, 3, 4}},
		{name: "horizon between strides", every: 20, rounds: 50, want: []int{20, 40, 50}},
		{name: "early stop between strides", every: 5, rounds: 50, stopAt: 7, want: []int{5, 7}},
		{name: "early stop on a stride", every: 5, rounds: 50, stopAt: 10, want: []int{5, 10}},
		{name: "cancel between strides", every: 5, rounds: 50, cancelAt: 8, want: []int{5, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := DensitySpec(WithTorus2D(8), WithAgents(10), WithSeed(1),
				WithRounds(tc.rounds), WithSnapshotEvery(tc.every)).NewRun()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var round int
			est := sim.ObserverFunc(func(rd *sim.Round) sim.Signal {
				round = rd.Index()
				if rd.Index() == tc.stopAt {
					for i := 0; i < rd.NumAgents(); i++ {
						rd.Deactivate(i)
					}
				}
				if rd.Index() == tc.cancelAt {
					cancel()
				}
				return sim.Continue
			})
			var captured []int
			rounds, _ := r.observe(ctx, tc.rounds, est, snapshotter{
				capture: func(*capture) int {
					captured = append(captured, round)
					return 0
				},
				build: func(*capture, int, *Snapshot) {},
			})
			if !slices.Equal(captured, tc.want) {
				t.Errorf("captured rounds %v, want %v", captured, tc.want)
			}
			if got := r.Snapshot().Round; got != rounds {
				t.Errorf("published round %d, executed %d", got, rounds)
			}
		})
	}
}

// eagerView is the reference every materialized snapshot is pinned to:
// the per-agent fields a publish computed from the live observer at
// the published round before publications became copies that readers
// materialize. It replays the Spec's world for `round` rounds.
func eagerView(t *testing.T, s *Spec, round int) Snapshot {
	t.Helper()
	w, err := s.buildWorld()
	if err != nil {
		t.Fatal(err)
	}
	n := w.NumAgents()
	snap := Snapshot{Round: round}
	switch s.Kind {
	case KindDensity, KindQuorum:
		obs, err := core.NewCollisionObserver(n)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(w, round, obs)
		countEstimates(core.NewRoundBand(n, 0, s.delta(), s.c1()), obs.Counts(), round, &snap)
		if s.Kind == KindQuorum {
			for _, e := range snap.Estimates {
				if e >= s.Threshold {
					snap.YesVotes++
				}
			}
		}
	case KindIndependent:
		core.SetupAlgorithm4(w, s.PolicySeed)
		obs := core.NewIndependentObserver(n)
		sim.Run(w, round, obs)
		snap.Estimates = obs.Estimates(round)
		snap.Mean = meanFinite(snap.Estimates)
	case KindProperty:
		obs, err := core.NewPropertyObserver(n)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(w, round, obs)
		snap.Estimates = obs.Frequencies()
		snap.Mean = meanFinite(snap.Estimates)
	case KindQuorumAdaptive:
		det, err := quorum.NewAnytimeDetector(n, s.Threshold, s.delta(), s.c1())
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(w, round, det)
		snap.Estimates, snap.CIHalf = det.Intervals()
		for i := range snap.Estimates {
			if det.Decision(i) == +1 {
				snap.YesVotes++
			}
		}
		snap.Mean = meanFinite(snap.Estimates)
		snap.Decided = det.NumDecided()
	default:
		t.Fatalf("no eager view for kind %v", s.Kind)
	}
	return snap
}

// sameBits compares float slices bit for bit (NaNs equal, nil only
// equal to nil).
func sameBits(got, want []float64) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// checkView reports where snap's per-agent fields differ from want's.
func checkView(t *testing.T, what string, snap, want Snapshot) {
	t.Helper()
	if snap.Round != want.Round {
		t.Fatalf("%s: round %d, reference round %d", what, snap.Round, want.Round)
	}
	if !sameBits(snap.Estimates, want.Estimates) {
		t.Errorf("%s (round %d): Estimates differ from the eager view", what, snap.Round)
	}
	if !sameBits(snap.CIHalf, want.CIHalf) {
		t.Errorf("%s (round %d): CIHalf differs from the eager view", what, snap.Round)
	}
	if math.Float64bits(snap.Mean) != math.Float64bits(want.Mean) || snap.YesVotes != want.YesVotes || snap.Decided != want.Decided {
		t.Errorf("%s (round %d): mean %v, yes %d, decided %d; eager view %v, %d, %d", what, snap.Round,
			snap.Mean, snap.YesVotes, snap.Decided, want.Mean, want.YesVotes, want.Decided)
	}
}

// publicationSpecs is one Spec of every kind with a per-agent view, on
// a 41-agent 20x20 torus (density 0.1; the quorum thresholds sit at
// it, so adaptive agents decide slowly).
func publicationSpecs(rounds, every int) []*Spec {
	opts := []SpecOption{WithTorus2D(20), WithAgents(41), WithSeed(5), WithRounds(rounds), WithSnapshotEvery(every)}
	return []*Spec{
		DensitySpec(opts...),
		IndependentSpec(append(opts, WithPolicySeed(9))...),
		PropertySpec(append(opts, WithTaggedCount(10))...),
		QuorumSpec(0.1, opts...),
		AdaptiveQuorumSpec(0.1, opts...),
	}
}

// waitRound polls r's snapshot until it reaches round `at`, failing if
// the run ends first.
func waitRound(t *testing.T, r *Run, at int) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := r.Snapshot()
		if snap.Round >= at {
			return snap
		}
		if snap.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("run reached round %d (%v), want %d", snap.Round, snap.State, at)
		}
	}
}

// TestPublicationsMatchEagerViews pins, for every kind, the snapshot a
// reader materializes to the eager view bit for bit: at a stride round
// a reader holds while the run publishes 100 more rounds (whose bits
// must not move), at a cancellation, at the horizon between strides,
// and at an adaptive run's early stop.
func TestPublicationsMatchEagerViews(t *testing.T) {
	for _, s := range publicationSpecs(50_000_000, 3) {
		t.Run("stride and cancel/"+s.Kind.String(), func(t *testing.T) {
			r, err := s.Start(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			held := waitRound(t, r, 30)
			ests, half := slices.Clone(held.Estimates), slices.Clone(held.CIHalf)
			waitRound(t, r, held.Round+3*100)
			r.Cancel()
			if err := r.Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Wait() = %v, want context.Canceled", err)
			}
			if held.Round%3 != 0 {
				t.Errorf("held round %d is not a stride round", held.Round)
			}
			if !sameBits(held.Estimates, ests) || !sameBits(held.CIHalf, half) {
				t.Errorf("a held snapshot changed while the run published on")
			}
			checkView(t, "held", held, eagerView(t, s, held.Round))
			final := r.Snapshot()
			if final.State != StateCanceled {
				t.Fatalf("final state %v", final.State)
			}
			checkView(t, "canceled", final, eagerView(t, s, final.Round))
		})
	}
	for _, s := range publicationSpecs(50, 7) {
		t.Run("horizon/"+s.Kind.String(), func(t *testing.T) {
			r, err := s.Start(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Wait(); err != nil {
				t.Fatal(err)
			}
			checkView(t, "horizon", r.Snapshot(), eagerView(t, s, 50))
		})
	}
	t.Run("early stop", func(t *testing.T) {
		s := AdaptiveQuorumSpec(0.02, WithTorus2D(20), WithAgents(41), WithSeed(5),
			WithRounds(100_000), WithSnapshotEvery(1000))
		r, err := s.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		final := r.Snapshot()
		if final.Round >= 100_000 || final.Round%1000 == 0 || final.Decided != 41 {
			t.Fatalf("round %d, %d decided: the case needs an early stop between strides", final.Round, final.Decided)
		}
		checkView(t, "early stop", final, eagerView(t, s, final.Round))
	})
}

// TestTerminalRunReleasesWorld pins that a terminal Run keeps its
// outcome but not its world: once the engine returns, or a run is
// cancelled before Start, the world (positions, streams, occupancy
// index) is garbage even while the Run itself stays reachable, as
// every finished run a Manager retains does.
func TestTerminalRunReleasesWorld(t *testing.T) {
	opts := func(extra ...SpecOption) []SpecOption {
		return append([]SpecOption{WithTorus2D(16), WithAgents(40), WithSeed(3), WithRounds(20)}, extra...)
	}
	for _, tc := range []struct {
		name   string
		spec   *Spec
		cancel bool // cancel before Start instead of running
	}{
		{name: "density", spec: DensitySpec(opts()...)},
		{name: "density with adversary", spec: DensitySpec(opts(WithAdversary("stall", 0.2, 0, 0))...)},
		{name: "independent", spec: IndependentSpec(opts()...)},
		{name: "property", spec: PropertySpec(opts(WithTaggedCount(8))...)},
		{name: "quorum", spec: QuorumSpec(0.05, opts()...)},
		{name: "adaptive quorum", spec: AdaptiveQuorumSpec(0.05, opts()...)},
		{name: "cancelled before start", spec: DensitySpec(opts()...), cancel: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.spec.NewRun()
			if err != nil {
				t.Fatal(err)
			}
			world := weak.Make(r.world)
			if tc.cancel {
				r.Cancel()
			} else {
				if err := r.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := r.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.GC()
			if world.Value() != nil {
				t.Errorf("a %s run keeps its world reachable", r.State())
			}
			if _, err := r.Result(); !tc.cancel && err != nil {
				t.Errorf("result after release: %v", err)
			}
			runtime.KeepAlive(r)
		})
	}
}
