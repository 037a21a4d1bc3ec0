package quorum

import (
	"math"
	"testing"

	"antdensity/internal/adversary"
	"antdensity/internal/core"
	"antdensity/internal/sim"
	"antdensity/internal/topology"
)

func TestDecideSeparatesDensities(t *testing.T) {
	// theta = 0.1; worlds at d = 0.2 should mostly vote yes, worlds
	// at d = 0.05 mostly no. A fixed-horizon decision is Votes over
	// Algorithm 1's estimates (what a QuorumSpec run computes).
	g := topology.MustTorus(2, 20) // A = 400
	const threshold = 0.1
	votesAt := func(agents int, seed uint64) float64 {
		var yes, all int
		for trial := 0; trial < 4; trial++ {
			w := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: seed + uint64(trial)})
			ests, err := core.Algorithm1(w, 3000)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range Votes(ests, threshold) {
				all++
				if v {
					yes++
				}
			}
		}
		return float64(yes) / float64(all)
	}
	high := votesAt(81, 10) // d = 0.2
	low := votesAt(21, 20)  // d = 0.05
	if high < 0.85 {
		t.Errorf("high-density yes fraction = %v, want > 0.85", high)
	}
	if low > 0.15 {
		t.Errorf("low-density yes fraction = %v, want < 0.15", low)
	}
}

func TestDetectionCurveMonotone(t *testing.T) {
	// P[declare quorum] should increase with the density ratio and be
	// near 0 / 1 at the extremes. Each point is the yes fraction of
	// Votes over Algorithm 1's estimates in worlds at density about
	// ratio*theta, seeded seed + ri<<32 + trial as E19 seeds its rows.
	const (
		side      = 20
		threshold = 0.1
		rounds    = 1500
		trials    = 3
		seed      = 42
	)
	g := topology.MustTorus(2, side)
	ratios := []float64{0.3, 1.0, 2.5}
	curve := make([]float64, len(ratios))
	for ri, r := range ratios {
		agents := int(math.Round(r*threshold*side*side)) + 1
		var yes, all int
		for trial := 0; trial < trials; trial++ {
			w := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: seed + uint64(ri)<<32 + uint64(trial)})
			ests, err := core.Algorithm1(w, rounds)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range Votes(ests, threshold) {
				all++
				if v {
					yes++
				}
			}
		}
		curve[ri] = float64(yes) / float64(all)
	}
	if curve[0] > 0.25 {
		t.Errorf("P at ratio 0.3 = %v, want < 0.25", curve[0])
	}
	if curve[2] < 0.75 {
		t.Errorf("P at ratio 2.5 = %v, want > 0.75", curve[2])
	}
	if !(curve[0] < curve[1] && curve[1] < curve[2]) {
		t.Errorf("detection curve not monotone: %v", curve)
	}
}

func TestDetectionRoundsThresholdScaling(t *testing.T) {
	// Halving the threshold should roughly double the rounds (up to
	// log factors) — t depends on theta, not on the unknown d.
	lo := DetectionRounds(0.05, 0.2, 0.05, 1)
	hi := DetectionRounds(0.1, 0.2, 0.05, 1)
	if lo <= hi {
		t.Errorf("rounds at theta=0.05 (%d) not above theta=0.1 (%d)", lo, hi)
	}
	ratio := float64(lo) / float64(hi)
	if ratio < 1.5 || ratio > 4 {
		t.Errorf("rounds ratio = %v, want ~2 up to logs", ratio)
	}
}

func TestMajorityVote(t *testing.T) {
	tests := []struct {
		name  string
		votes []bool
		want  bool
	}{
		{name: "empty", votes: nil, want: false},
		{name: "unanimous yes", votes: []bool{true, true}, want: true},
		{name: "tie is no", votes: []bool{true, false}, want: false},
		{name: "majority yes", votes: []bool{true, true, false}, want: true},
		{name: "majority no", votes: []bool{true, false, false}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MajorityVote(tt.votes); got != tt.want {
				t.Errorf("MajorityVote(%v) = %v, want %v", tt.votes, got, tt.want)
			}
		})
	}
}

func TestVoteFraction(t *testing.T) {
	if got := VoteFraction(nil); got != 0 {
		t.Errorf("empty VoteFraction = %v", got)
	}
	if got := VoteFraction([]bool{true, false, true, true}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("VoteFraction = %v, want 0.75", got)
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(0.1, 0.2, 5); err == nil {
		t.Error("exit > enter accepted")
	}
	if _, err := NewDetector(0.1, 0, 5); err == nil {
		t.Error("zero exit accepted")
	}
	if _, err := NewDetector(0.1, 0.05, 0); err == nil {
		t.Error("zero warmup accepted")
	}
}

func TestDetectorHysteresis(t *testing.T) {
	d, err := NewDetector(0.5, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Warmup round: even a huge count must not trigger.
	if d.Observe(10) {
		t.Fatal("triggered during warmup")
	}
	// Estimate now 10/1... after round 2 with count 0: est 5.0 >= 0.5
	if !d.Observe(0) {
		t.Fatal("did not enter quorum after warmup with high estimate")
	}
	// Feed zeros; estimate decays toward 0 and must cross exit=0.25
	// before the state drops.
	dropped := false
	for i := 0; i < 100; i++ {
		in := d.Observe(0)
		if !in {
			dropped = true
			if est := d.Estimate(); est >= 0.25 {
				t.Fatalf("dropped at estimate %v, above exit threshold", est)
			}
			break
		}
		// While still in quorum the estimate must be above exit.
		if est := d.Estimate(); est < 0.25 {
			t.Fatalf("estimate %v below exit but still in quorum after update", est)
		}
	}
	if !dropped {
		t.Fatal("never exited quorum on all-zero stream")
	}
}

func TestDetectorEstimateAndReset(t *testing.T) {
	d, err := NewDetector(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Estimate() != 0 {
		t.Error("fresh estimate not 0")
	}
	d.Observe(3)
	d.Observe(1)
	if got := d.Estimate(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Estimate = %v, want 2", got)
	}
	if d.Rounds() != 2 {
		t.Errorf("Rounds = %d, want 2", d.Rounds())
	}
	d.Reset()
	if d.Rounds() != 0 || d.Estimate() != 0 || d.InQuorum() {
		t.Error("Reset did not clear state")
	}
}

func TestDetectorPanicsOnNegativeCount(t *testing.T) {
	d, err := NewDetector(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	d.Observe(-1)
}

func TestDetectorAsObserverMatchesScalarFeed(t *testing.T) {
	// Feeding a detector through the pipeline must be identical to
	// feeding it Count(0) by hand on a twin world.
	g := topology.MustTorus(2, 12)
	w1 := sim.MustWorld(sim.Config{Graph: g, NumAgents: 60, Seed: 9})
	w2 := sim.MustWorld(sim.Config{Graph: g, NumAgents: 60, Seed: 9})
	d1, err := NewDetector(0.3, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := NewDetector(0.3, 0.2, 3)
	const rounds = 200
	sim.Run(w1, rounds, d1.AsObserver(0))
	for r := 0; r < rounds; r++ {
		w2.Step()
		d2.Observe(w2.Count(0))
	}
	if d1.Estimate() != d2.Estimate() || d1.Rounds() != d2.Rounds() || d1.InQuorum() != d2.InQuorum() {
		t.Errorf("pipeline detector (est %v, rounds %d, in %v) != scalar (est %v, rounds %d, in %v)",
			d1.Estimate(), d1.Rounds(), d1.InQuorum(), d2.Estimate(), d2.Rounds(), d2.InQuorum())
	}
}

func TestAnytimeDecideSeparatesDensities(t *testing.T) {
	g := topology.MustTorus(2, 20) // A = 400
	const threshold = 0.1
	decideAt := func(agents int, seed uint64) *AnytimeResult {
		det, err := NewAnytimeDetector(agents, threshold, 0.05, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		w := sim.MustWorld(sim.Config{Graph: g, NumAgents: agents, Seed: seed})
		return det.Result(sim.Run(w, 40000, det))
	}
	high := decideAt(161, 5) // d = 0.4: all agents should decide +1 fast
	correct := 0
	for i, d := range high.Decision {
		if d == +1 {
			correct++
		}
		if high.StopRound[i] < 1 || high.StopRound[i] > high.Rounds {
			t.Errorf("agent %d stop round %d outside [1, %d]", i, high.StopRound[i], high.Rounds)
		}
	}
	if frac := float64(correct) / float64(len(high.Decision)); frac < 0.9 {
		t.Errorf("high-density correct fraction = %v, want >= 0.9", frac)
	}
	low := decideAt(11, 6) // d = 0.025: agents should decide -1
	correct = 0
	for _, d := range low.Decision {
		if d == -1 {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(low.Decision)); frac < 0.9 {
		t.Errorf("low-density correct fraction = %v, want >= 0.9", frac)
	}
	// The margin rule of Section 6.2: decisions far from the threshold
	// come faster than the fixed horizon sized for the threshold.
	if high.Rounds >= 40000 {
		t.Errorf("high-density run used the full horizon (%d rounds); expected early stop", high.Rounds)
	}
}

func TestAnytimeDecideValidation(t *testing.T) {
	// The detector's constructor is the anytime decision's one
	// validation point; a Spec's round budget is checked by
	// Spec.Validate.
	for _, tc := range []struct {
		name                 string
		threshold, delta, c1 float64
	}{
		{"zero threshold", 0, 0.05, 0.6},
		{"negative threshold", -0.1, 0.05, 0.6},
		{"zero delta", 0.1, 0, 0.6},
		{"delta one", 0.1, 1, 0.6},
		{"zero c1", 0.1, 0.05, 0},
	} {
		if _, err := NewAnytimeDetector(4, tc.threshold, tc.delta, tc.c1); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestAnytimeDetectorAgreesWithStreamingEstimator(t *testing.T) {
	// The per-agent anytime observer must reproduce, agent by agent,
	// what a hand-rolled StreamingEstimator loop decides for the same
	// world seed — the tie between the pipeline's active mask and the
	// scalar early-stopping loop of experiment E24 — and publish the
	// same intervals bit for bit: a decided agent's from its stop
	// round, an undecided one's from the last round. The 2000-agent
	// worlds keep counts inside the round-band memo's bound; the
	// inflate case routes every count through a report filter.
	for _, tc := range []struct {
		name          string
		side          int64
		agents        int
		threshold, c1 float64
		horizon       int
		seed          uint64
		adversary     *adversary.Config
		wantSplit     bool
	}{
		{name: "41 agents", side: 20, agents: 41, threshold: 0.1, c1: 0.6, horizon: 4000, seed: 77},
		{name: "2000 agents c1 0.35", side: 64, agents: 2000, threshold: 0.45, c1: 0.35, horizon: 300, seed: 5, wantSplit: true},
		{name: "2000 agents c1 0.6", side: 64, agents: 2000, threshold: 0.45, c1: 0.6, horizon: 300, seed: 6, wantSplit: true},
		{name: "inflate filter", side: 20, agents: 41, threshold: 0.1, c1: 0.6, horizon: 4000, seed: 78,
			adversary: &adversary.Config{Kind: adversary.Inflate, Fraction: 0.25, Param: 2, Seed: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const delta = 0.05
			cfg := sim.Config{Graph: topology.MustTorus(2, tc.side), NumAgents: tc.agents, Seed: tc.seed}
			filter := func() core.ReportFilter {
				if tc.adversary == nil {
					return nil
				}
				tam, err := adversary.New(tc.agents, *tc.adversary)
				if err != nil {
					t.Fatal(err)
				}
				return tam.Filter()
			}
			det, err := NewAnytimeDetector(tc.agents, tc.threshold, delta, tc.c1)
			if err != nil {
				t.Fatal(err)
			}
			if f := filter(); f != nil {
				det.SetReportFilter(f)
			}
			res := det.Result(sim.Run(sim.MustWorld(cfg), tc.horizon, det))

			// Scalar replay: every agent its own estimator, same stop rule.
			w2 := sim.MustWorld(cfg)
			f2 := filter()
			ests := make([]*core.StreamingEstimator, tc.agents)
			for i := range ests {
				ests[i], _ = core.NewStreamingEstimator(tc.c1)
			}
			decision := make([]int, tc.agents)
			stopRound := make([]int, tc.agents)
			buf := make([]int, tc.agents)
			undecided := tc.agents
			rounds := 0
			for r := 1; r <= tc.horizon && undecided > 0; r++ {
				w2.Step()
				rounds = r
				cs := w2.CountsAllInto(buf)
				if f2 != nil {
					cs = f2(r, cs)
				}
				for i := 0; i < tc.agents; i++ {
					if decision[i] != 0 {
						continue
					}
					ests[i].Observe(cs[i])
					if v := ests[i].AboveThreshold(tc.threshold, delta); v != 0 {
						decision[i] = v
						stopRound[i] = r
						undecided--
					}
				}
			}
			if res.Rounds != rounds {
				t.Fatalf("pipeline ran %d rounds, scalar replay %d", res.Rounds, rounds)
			}
			if tc.wantSplit && (undecided == 0 || undecided == tc.agents) {
				t.Fatalf("%d of %d agents undecided; the case needs both kinds", undecided, tc.agents)
			}
			allEst, allHalf := det.Intervals()
			for i := 0; i < tc.agents; i++ {
				want := stopRound[i]
				if decision[i] == 0 {
					want = rounds
				}
				if res.Decision[i] != decision[i] || res.StopRound[i] != want {
					t.Errorf("agent %d: pipeline (%d @ %d) != scalar (%d @ %d)",
						i, res.Decision[i], res.StopRound[i], decision[i], want)
				}
				est, half := det.Interval(i)
				wantEst, wantHalf := ests[i].Interval(delta)
				if math.Float64bits(est) != math.Float64bits(wantEst) || math.Float64bits(half) != math.Float64bits(wantHalf) {
					t.Errorf("agent %d (decision %d): Interval = (%v, %v), scalar (%v, %v)",
						i, decision[i], est, half, wantEst, wantHalf)
				}
				if math.Float64bits(allEst[i]) != math.Float64bits(est) || math.Float64bits(allHalf[i]) != math.Float64bits(half) {
					t.Errorf("agent %d: Intervals = (%v, %v), Interval (%v, %v)", i, allEst[i], allHalf[i], est, half)
				}
			}
		})
	}
}

func TestTrimmedVoteFraction(t *testing.T) {
	// 8 estimates at threshold 0.1: two Byzantine lows, six honest
	// highs. trim 0.25 drops two per tail, leaving 4 middle voters.
	ests := []float64{0, 0, 0.12, 0.12, 0.12, 0.12, 0.12, 0.12}
	if got := TrimmedVoteFraction(ests, 0.1, 0.25); got != 1 {
		t.Errorf("TrimmedVoteFraction = %v, want 1 (Byzantine lows trimmed)", got)
	}
	if got := VoteFraction(Votes(ests, 0.1)); got != 0.75 {
		t.Errorf("plain VoteFraction = %v, want 0.75", got)
	}
	if !TrimmedMajority(ests, 0.1, 0.25) {
		t.Error("TrimmedMajority = false, want true")
	}
	// trim 0 matches the plain fraction.
	if got, want := TrimmedVoteFraction(ests, 0.1, 0), VoteFraction(Votes(ests, 0.1)); got != want {
		t.Errorf("TrimmedVoteFraction(0) = %v, want %v", got, want)
	}
	if got := TrimmedVoteFraction(nil, 0.1, 0.25); got != 0 {
		t.Errorf("TrimmedVoteFraction(empty) = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("trim >= 0.5 did not panic")
		}
	}()
	TrimmedVoteFraction(ests, 0.1, 0.5)
}
