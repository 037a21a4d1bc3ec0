package antdensity_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"antdensity"
	"antdensity/internal/core"
	"antdensity/internal/netsize"
	"antdensity/internal/quorum"
	"antdensity/internal/sim"
	"antdensity/internal/topology"
)

// newTestWorld builds a fresh world with a fixed config so the direct
// internal path and the v2 Spec path see identical randomness.
func newTestWorld(t *testing.T, agents int, seed uint64) *sim.World {
	t.Helper()
	w, err := sim.NewWorld(sim.Config{Graph: topology.MustTorus(2, 20), NumAgents: agents, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sameFloats compares float slices bit-for-bit (NaNs equal).
func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v (bit mismatch)", name, i, got[i], want[i])
		}
	}
}

// runSpec compiles, starts, and drains a spec.
func runSpec(t *testing.T, s *antdensity.Spec) antdensity.Output {
	t.Helper()
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, err := r.Output()
	if err != nil {
		t.Fatal(err)
	}
	if r.State() != antdensity.StateDone {
		t.Fatalf("terminal state = %v, want done", r.State())
	}
	return out
}

// The Spec-vs-direct equivalence tests: for every estimator, the
// internal package path and an explicit Spec run must produce
// bit-identical outputs for a fixed seed. (They keep the names they
// had when they also covered the v1 one-shot wrappers.)

func TestShimEquivalenceDensity(t *testing.T) {
	const agents, rounds, seed = 41, 400, 7
	direct, err := core.Algorithm1(newTestWorld(t, agents, seed), rounds)
	if err != nil {
		t.Fatal(err)
	}
	out := runSpec(t, antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
	))
	sameFloats(t, "spec vs direct", out.Estimates, direct)
}

func TestShimEquivalenceDensityNoisy(t *testing.T) {
	const agents, rounds, seed = 41, 400, 7
	direct, err := core.Algorithm1(newTestWorld(t, agents, seed), rounds, core.WithNoise(0.8, 0.02, 11))
	if err != nil {
		t.Fatal(err)
	}
	out := runSpec(t, antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
		antdensity.WithSensingNoise(0.8, 0.02, 11),
	))
	sameFloats(t, "spec vs direct", out.Estimates, direct)
}

func TestShimEquivalenceIndependent(t *testing.T) {
	const agents, rounds, seed, policySeed = 51, 120, 5, 13
	direct, err := core.Algorithm4(newTestWorld(t, agents, seed), rounds, policySeed)
	if err != nil {
		t.Fatal(err)
	}
	out := runSpec(t, antdensity.IndependentSpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
		antdensity.WithPolicySeed(policySeed),
	))
	sameFloats(t, "spec vs direct", out.Estimates, direct)
}

func TestShimEquivalenceProperty(t *testing.T) {
	const agents, rounds, seed, tagged = 60, 300, 9, 15
	wd := newTestWorld(t, agents, seed)
	for i := 0; i < tagged; i++ {
		wd.SetTagged(i, true)
	}
	direct, err := core.PropertyFrequency(wd, rounds)
	if err != nil {
		t.Fatal(err)
	}
	out := runSpec(t, antdensity.PropertySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
		antdensity.WithTaggedCount(tagged),
	))
	sameFloats(t, "spec density", out.Property.Density, direct.Density)
	sameFloats(t, "spec property density", out.Property.PropertyDensity, direct.PropertyDensity)
	sameFloats(t, "spec frequency", out.Property.Frequency, direct.Frequency)
}

func TestShimEquivalenceQuorum(t *testing.T) {
	const agents, rounds, seed = 46, 500, 3
	const threshold = 0.1
	ests, err := core.Algorithm1(newTestWorld(t, agents, seed), rounds)
	if err != nil {
		t.Fatal(err)
	}
	direct := quorum.Votes(ests, threshold)
	out := runSpec(t, antdensity.QuorumSpec(threshold,
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(rounds),
	))
	for i := range direct {
		if out.Votes[i] != direct[i] {
			t.Fatalf("spec vote[%d] = %v, want %v", i, out.Votes[i], direct[i])
		}
	}
}

func TestShimEquivalenceAdaptiveQuorum(t *testing.T) {
	const agents, maxRounds, seed = 91, 4000, 3
	const threshold, delta, c1 = 0.1, 0.05, 0.6
	det, err := quorum.NewAnytimeDetector(agents, threshold, delta, c1)
	if err != nil {
		t.Fatal(err)
	}
	direct := det.Result(sim.Run(newTestWorld(t, agents, seed), maxRounds, det))
	s := antdensity.AdaptiveQuorumSpec(threshold,
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(maxRounds),
		antdensity.WithConfidence(delta),
		antdensity.WithBandConstant(c1),
	)
	got := runSpec(t, s).Anytime
	if got.Rounds != direct.Rounds {
		t.Fatalf("rounds = %d, want %d", got.Rounds, direct.Rounds)
	}
	for i := range direct.Decision {
		if got.Decision[i] != direct.Decision[i] || got.StopRound[i] != direct.StopRound[i] {
			t.Fatalf("agent %d: decision/stop = %d/%d, want %d/%d",
				i, got.Decision[i], got.StopRound[i], direct.Decision[i], direct.StopRound[i])
		}
	}
}

func TestShimEquivalenceNetworkSize(t *testing.T) {
	g := topology.MustTorus(3, 7) // odd side: non-bipartite
	cfg := netsize.Config{Walkers: 40, Steps: 80, Stationary: true, Seed: 13}
	direct, err := netsize.Estimate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := runSpec(t, antdensity.NetworkSizeSpec(
		antdensity.WithGraph(g),
		antdensity.WithWalkers(40),
		antdensity.WithRounds(80),
		antdensity.WithStationary(),
		antdensity.WithSeed(13),
	)).NetworkSize
	if math.Float64bits(got.Size) != math.Float64bits(direct.Size) ||
		math.Float64bits(got.C) != math.Float64bits(direct.C) ||
		math.Float64bits(got.InvAvgDegree) != math.Float64bits(direct.InvAvgDegree) ||
		got.Queries != direct.Queries {
		t.Fatalf("spec result %+v != direct %+v", got, direct)
	}
}

// TestRunCancellation checks the satellite's cancellation contract:
// a mid-run cancel surfaces context.Canceled, stops within a round,
// and leaves the injected world consistent and resumable.
func TestRunCancellation(t *testing.T) {
	w := newTestWorld(t, 41, 2)
	s := antdensity.DensitySpec(antdensity.WithWorld(w), antdensity.WithRounds(50_000_000))
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Let it make progress first.
	deadline := time.Now().Add(10 * time.Second)
	for r.Snapshot().Round < 3 {
		if time.Now().After(deadline) {
			t.Fatal("run made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := r.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
	if !errors.Is(r.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", r.Err())
	}
	if got := r.State(); got != antdensity.StateCanceled {
		t.Fatalf("State() = %v, want canceled", got)
	}
	snap := r.Snapshot()
	if snap.State != antdensity.StateCanceled || snap.Err == "" {
		t.Fatalf("terminal snapshot = %+v", snap)
	}
	if _, err := r.Output(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Output() error = %v, want context.Canceled", err)
	}
	if _, err := r.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result() error = %v, want context.Canceled", err)
	}

	// The world stopped on a round boundary and remains resumable:
	// a fresh estimation run on the same world must work.
	roundsBefore := w.Round()
	if roundsBefore == 0 {
		t.Fatal("world did not advance before cancellation")
	}
	ests, err := core.Algorithm1(w, 10)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if len(ests) != 41 {
		t.Fatalf("resumed run returned %d estimates", len(ests))
	}
	if got := w.Round(); got != roundsBefore+10 {
		t.Fatalf("world rounds = %d, want %d", got, roundsBefore+10)
	}
}

// TestRunCancelBeforeStart checks that a pending run can be
// cancelled, finishing immediately without executing.
func TestRunCancelBeforeStart(t *testing.T) {
	s := antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(5),
		antdensity.WithRounds(100),
	)
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	r.Cancel()
	r.Cancel() // idempotent
	if err := r.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
	if snap := r.Snapshot(); snap.Round != 0 {
		t.Fatalf("cancelled-before-start run executed %d rounds", snap.Round)
	}
	if err := r.Start(context.Background()); err == nil {
		t.Fatal("Start() after Cancel() succeeded")
	}
}

// TestRunDeadline checks that a context deadline cancels like an
// explicit cancel.
func TestRunDeadline(t *testing.T) {
	s := antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithRounds(50_000_000),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	r, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait() = %v, want context.DeadlineExceeded", err)
	}
	if got := r.State(); got != antdensity.StateCanceled {
		t.Fatalf("State() = %v, want canceled", got)
	}
}

// TestRunSnapshotRace hammers Snapshot from several goroutines while
// the run is stepping — the race detector (CI runs the suite with
// -race) proves snapshot reads never synchronize with the hot path,
// and that concurrent readers materialize a shared publication once.
// Each reader holds its first snapshot to the end: the run must never
// recycle a buffer a reader pinned (adaptive quorum snapshots share
// the run's captured intervals).
func TestRunSnapshotRace(t *testing.T) {
	opts := []antdensity.SpecOption{
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithSeed(4),
		antdensity.WithRounds(3000),
	}
	for _, s := range []*antdensity.Spec{
		antdensity.DensitySpec(opts...),
		antdensity.AdaptiveQuorumSpec(0.1, opts...), // threshold at the density: slow decisions
	} {
		t.Run(s.Kind.String(), func(t *testing.T) {
			r, err := s.NewRun()
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			readers := runtime.GOMAXPROCS(0) + 2
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lastRound := -1
					var held antdensity.Snapshot
					var heldEsts, heldHalf []float64
					for {
						snap := r.Snapshot()
						if snap.Round < lastRound {
							t.Error("snapshot round went backwards")
							return
						}
						lastRound = snap.Round
						if held.Estimates == nil && snap.Estimates != nil {
							held = snap
							heldEsts, heldHalf = append([]float64(nil), snap.Estimates...), append([]float64(nil), snap.CIHalf...)
						}
						if snap.Round > 0 && (len(snap.Estimates) != 41 || len(snap.CIHalf) != 41) {
							t.Errorf("round %d: %d estimates, %d bands", snap.Round, len(snap.Estimates), len(snap.CIHalf))
							return
						}
						if snap.State.Terminal() {
							break
						}
					}
					for i := range heldEsts {
						if math.Float64bits(held.Estimates[i]) != math.Float64bits(heldEsts[i]) ||
							math.Float64bits(held.CIHalf[i]) != math.Float64bits(heldHalf[i]) {
							t.Errorf("snapshot of round %d changed under its reader at agent %d", held.Round, i)
							return
						}
					}
				}()
			}
			if err := r.Wait(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			snap := r.Snapshot()
			if snap.State != antdensity.StateDone || snap.Progress != 1 || (s.Kind == antdensity.KindDensity && snap.Round != 3000) {
				t.Fatalf("final snapshot = %+v", snap)
			}
			if len(snap.Estimates) != 41 || len(snap.CIHalf) != 41 {
				t.Fatalf("final snapshot slices: %d estimates, %d ci", len(snap.Estimates), len(snap.CIHalf))
			}
			if snap.Mean <= 0 {
				t.Fatalf("final mean estimate = %v", snap.Mean)
			}
		})
	}
}

// TestRunTerminalSnapshotFresh pins that a run which stops between
// snapshot strides (adaptive early stop with SnapshotEvery > 1) still
// reports its true final round in the terminal snapshot.
func TestRunTerminalSnapshotFresh(t *testing.T) {
	s := antdensity.AdaptiveQuorumSpec(0.05, // d = 0.1 >> theta: decides fast
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithSeed(3),
		antdensity.WithRounds(100000),
		antdensity.WithBandConstant(0.6),
		antdensity.WithSnapshotEvery(1000),
	)
	r, err := s.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Output()
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds >= 100000 {
		t.Fatalf("run did not stop early (%d rounds); test needs an early stop", out.Rounds)
	}
	snap := r.Snapshot()
	if snap.Round != out.Rounds {
		t.Fatalf("terminal snapshot round %d != executed rounds %d", snap.Round, out.Rounds)
	}
	if snap.Decided != 41 {
		t.Fatalf("terminal snapshot decided = %d", snap.Decided)
	}
}

// TestRunResultStructured checks the schema-stable structured result.
func TestRunResultStructured(t *testing.T) {
	out := runSpec(t, antdensity.QuorumSpec(0.05,
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithSeed(6),
		antdensity.WithRounds(400),
	))
	if len(out.Votes) != 41 {
		t.Fatalf("votes = %d", len(out.Votes))
	}
	r, err := antdensity.QuorumSpec(0.05,
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(41),
		antdensity.WithSeed(6),
		antdensity.WithRounds(400),
	).Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "quorum" {
		t.Errorf("result id = %q", res.ID)
	}
	if len(res.Series) != 1 || res.Series[0].NumRows() != 41 {
		t.Fatalf("result series shape unexpected: %+v", res.Series)
	}
	for _, m := range []string{"rounds", "threshold", "yes_votes", "vote_fraction", "majority"} {
		if _, ok := res.Metric(m); !ok {
			t.Errorf("result missing metric %q", m)
		}
	}
}

// TestRunShardInvariance pins shard-transparency at the facade: the
// same Spec run flat, sharded serially, and sharded with a prime shard
// count yields bit-identical per-agent estimates, because sharding is
// execution layout only (the shards=1-vs-K twin of the workers=1-vs-N
// invariant, proven at the sim layer by the property matrix).
func TestRunShardInvariance(t *testing.T) {
	build := func(k int) *antdensity.Spec {
		return antdensity.DensitySpec(
			antdensity.WithTorus2D(20),
			antdensity.WithAgents(41),
			antdensity.WithSeed(7),
			antdensity.WithRounds(150),
			antdensity.WithShards(k),
		)
	}
	base := runSpec(t, build(1))
	for _, k := range []int{2, 7} {
		out := runSpec(t, build(k))
		if out.Rounds != base.Rounds {
			t.Fatalf("shards=%d ran %d rounds, flat ran %d", k, out.Rounds, base.Rounds)
		}
		sameFloats(t, "sharded estimates", out.Estimates, base.Estimates)
	}
}

// TestSnapshotBandsAreBandHalf pins every published band to
// core.BandHalf bit for bit, on a dense world (estimates above 1 hit
// the band's clamp) and a sparse one (agents without a collision carry
// +Inf): density and quorum snapshots at the terminal round, adaptive
// quorum snapshots at each agent's own stop round, and Mean as the
// agent-order sum.
func TestSnapshotBandsAreBandHalf(t *testing.T) {
	worlds := []struct {
		name      string
		side      int64
		agents    int
		rounds    int
		threshold float64
		wantInf   bool
	}{
		{"dense", 20, 800, 300, 1.9, false},
		{"sparse", 64, 41, 200, 0.02, true},
	}
	for _, w := range worlds {
		for _, c1 := range []float64{0.35, 0.6} {
			opts := []antdensity.SpecOption{
				antdensity.WithGraph(topology.MustTorus(2, w.side)),
				antdensity.WithAgents(w.agents),
				antdensity.WithRounds(w.rounds),
				antdensity.WithSeed(11),
				antdensity.WithBandConstant(c1),
			}
			for _, s := range []*antdensity.Spec{
				antdensity.DensitySpec(opts...),
				antdensity.QuorumSpec(w.threshold, opts...),
				antdensity.AdaptiveQuorumSpec(w.threshold, opts...),
			} {
				t.Run(fmt.Sprintf("%s/c1=%v/%s", w.name, c1, s.Kind), func(t *testing.T) {
					r, err := s.Start(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					out, err := r.Output()
					if err != nil {
						t.Fatal(err)
					}
					snap := r.Snapshot()
					var sum float64
					inf := 0
					for i, est := range snap.Estimates {
						round := snap.Round
						if out.Anytime != nil {
							round = out.Anytime.StopRound[i]
						}
						want := core.BandHalf(est, round, s.Delta, c1)
						if math.Float64bits(snap.CIHalf[i]) != math.Float64bits(want) {
							t.Errorf("agent %d: CIHalf %v, BandHalf(%v, %d) = %v", i, snap.CIHalf[i], est, round, want)
						}
						if math.IsInf(want, 1) {
							inf++
						}
						sum += est
					}
					if got, want := snap.Mean, sum/float64(len(snap.Estimates)); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("Mean %v, agent-order sum gives %v", got, want)
					}
					if out.Anytime != nil {
						dec := 0
						for _, d := range out.Anytime.Decision {
							if d != 0 {
								dec++
							}
						}
						if dec == 0 || dec == len(out.Anytime.Decision) {
							t.Errorf("%d of %d agents decided; the case needs decided and undecided agents", dec, len(out.Anytime.Decision))
						}
					}
					if w.wantInf && inf == 0 {
						t.Error("no agent without a collision; the sparse case needs one")
					}
				})
			}
		}
	}
}
