package experiments

import (
	"io"
	"strings"
	"testing"
)

// runQuick executes an experiment in quick mode and returns its
// outcome, failing the test on error.
func runQuick(t *testing.T, id string) *Outcome {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	out, err := e.Run(Params{Seed: 12345, Quick: true, Out: io.Discard})
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	return out
}

func metric(t *testing.T, o *Outcome, name string) float64 {
	t.Helper()
	v, ok := o.Metrics[name]
	if !ok {
		t.Fatalf("metric %q missing; have %v", name, o.Metrics)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18",
		"E19", "E20", "E21", "E22", "E23", "E24", "E25", "E26",
		"E27", "E28", "E29",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d].ID = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Claim == "" || all[i].Body == nil {
			t.Errorf("%s is missing title/claim/body", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID returned ok for unknown id")
	}
}

func TestE01UnbiasednessQuick(t *testing.T) {
	out := runQuick(t, "E01")
	if bias := metric(t, out, "max_abs_bias"); bias > 0.35 {
		t.Errorf("max abs bias = %v, want < 0.35 (Corollary 3)", bias)
	}
}

func TestE02TheoremOneScalingQuick(t *testing.T) {
	out := runQuick(t, "E02")
	slope := metric(t, out, "slope")
	if slope < -0.85 || slope > -0.2 {
		t.Errorf("error-vs-t slope = %v, want ~-0.5 (Theorem 1)", slope)
	}
}

func TestE03TorusNearCompleteQuick(t *testing.T) {
	out := runQuick(t, "E03")
	ratio := metric(t, out, "torus_over_complete")
	if ratio < 0.8 {
		t.Errorf("torus error below complete-graph error: ratio %v", ratio)
	}
	if ratio > 12 {
		t.Errorf("torus/complete error ratio = %v, want within polylog (< 12)", ratio)
	}
}

func TestE04RecollisionDecayQuick(t *testing.T) {
	out := runQuick(t, "E04")
	alpha := metric(t, out, "decay_exponent")
	if alpha < -1.3 || alpha > -0.7 {
		t.Errorf("2-D torus re-collision exponent = %v, want ~-1 (Lemma 4)", alpha)
	}
}

func TestE05EqualizationQuick(t *testing.T) {
	out := runQuick(t, "E05")
	if odd := metric(t, out, "odd_mass"); odd != 0 {
		t.Errorf("odd-step equalization mass = %v, want exactly 0", odd)
	}
	alpha := metric(t, out, "decay_exponent")
	if alpha < -1.3 || alpha > -0.7 {
		t.Errorf("equalization exponent = %v, want ~-1 (Corollary 10)", alpha)
	}
}

func TestE06MomentsQuick(t *testing.T) {
	out := runQuick(t, "E06")
	if ratio := metric(t, out, "max_var_ratio"); ratio > 10 {
		t.Errorf("Var(c_j) ratio to (t/A)log^2 2t = %v, want bounded (Lemma 11)", ratio)
	}
	if slope := metric(t, out, "equalization_log_slope"); slope <= 0 {
		t.Errorf("equalization count slope vs log t = %v, want positive (Cor. 16)", slope)
	}
}

func TestE07RingQuick(t *testing.T) {
	out := runQuick(t, "E07")
	rec := metric(t, out, "recollision_exponent")
	if rec < -0.75 || rec > -0.25 {
		t.Errorf("ring re-collision exponent = %v, want ~-0.5 (Lemma 20)", rec)
	}
	errExp := metric(t, out, "error_exponent")
	if errExp < -0.55 || errExp > -0.05 {
		t.Errorf("ring error exponent = %v, want ~-0.25 (Theorem 21)", errExp)
	}
}

func TestE08HighDimQuick(t *testing.T) {
	out := runQuick(t, "E08")
	a3 := metric(t, out, "exponent_k3")
	if a3 < -2.2 || a3 > -0.9 {
		t.Errorf("3-D torus exponent = %v, want ~-1.5 (Lemma 22)", a3)
	}
	ratio := metric(t, out, "torus3d_over_complete")
	if ratio > 4 {
		t.Errorf("3-D torus error = %vx complete graph, want near parity (Section 4.3)", ratio)
	}
}

func TestE09ExpanderQuick(t *testing.T) {
	out := runQuick(t, "E09")
	if v := metric(t, out, "violations"); v > 1 {
		t.Errorf("Lemma 23 bound violations = %v, want <= 1", v)
	}
	lambda := metric(t, out, "lambda")
	if lambda <= 0 || lambda >= 1 {
		t.Errorf("measured lambda = %v, want in (0,1)", lambda)
	}
}

func TestE10HypercubeQuick(t *testing.T) {
	out := runQuick(t, "E10")
	if v := metric(t, out, "violations"); v > 1 {
		t.Errorf("Lemma 25 bound violations = %v, want <= 1", v)
	}
}

func TestE11BtGrowthQuick(t *testing.T) {
	out := runQuick(t, "E11")
	ring := metric(t, out, "growth_ring")
	torus2 := metric(t, out, "growth_torus2d")
	torus3 := metric(t, out, "growth_torus3d")
	hyper := metric(t, out, "growth_hypercube")
	expander := metric(t, out, "growth_expander8")
	// Ordering: ring (sqrt) > torus2d (log) > flat families.
	if !(ring > torus2 && torus2 > torus3) {
		t.Errorf("B(t) growth ordering violated: ring %v, torus2d %v, torus3d %v", ring, torus2, torus3)
	}
	for name, g := range map[string]float64{"torus3d": torus3, "hypercube": hyper, "expander8": expander} {
		if g > 1.8 {
			t.Errorf("B(t) of %s grew by %v, want O(1)-flat (< 1.8)", name, g)
		}
	}
}

func TestE12IndependentSamplingQuick(t *testing.T) {
	out := runQuick(t, "E12")
	slope := metric(t, out, "slope")
	if slope < -0.8 || slope > -0.2 {
		t.Errorf("Algorithm 4 error slope = %v, want ~-0.5 (Theorem 32)", slope)
	}
}

func TestE13PropertyFrequencyQuick(t *testing.T) {
	out := runQuick(t, "E13")
	if bias := metric(t, out, "max_abs_bias"); bias > 0.3 {
		t.Errorf("property frequency max bias = %v, want < 0.3 (Section 5.2)", bias)
	}
}

func TestE14NetSizeQuick(t *testing.T) {
	out := runQuick(t, "E14")
	for _, name := range []string{"bias_torus3d", "bias_ba", "bias_er"} {
		bias := metric(t, out, name)
		if bias < 0.5 || bias > 1.6 {
			t.Errorf("%s = %v, want ~1 (Lemma 28)", name, bias)
		}
	}
}

func TestE15AvgDegreeQuick(t *testing.T) {
	out := runQuick(t, "E15")
	spread := metric(t, out, "scaled_spread")
	if spread > 3 {
		t.Errorf("rel-std x sqrt(n) spread = %v, want ~flat (Theorem 31)", spread)
	}
}

func TestE16QueryTradeoffQuick(t *testing.T) {
	out := runQuick(t, "E16")
	ratio := metric(t, out, "query_ratio")
	if ratio >= 1 {
		t.Errorf("multiround/katzir query ratio = %v, want < 1 (Section 5.1.5)", ratio)
	}
	// And the multi-round estimator should not be wildly less accurate.
	rk := metric(t, out, "relerr_katzir")
	rm := metric(t, out, "relerr_multiround")
	if rm > 3*rk+1 {
		t.Errorf("multiround rel err %v vs katzir %v: accuracy collapsed", rm, rk)
	}
}

func TestE17BurnInQuick(t *testing.T) {
	out := runQuick(t, "E17")
	noBurn := metric(t, out, "bias_noburn")
	fullBurn := metric(t, out, "bias_fullburn")
	stationary := metric(t, out, "bias_stationary")
	// Without burn-in all walkers sit on one vertex: C is wildly
	// inflated. After burn-in the bias should be near stationary's.
	if noBurn < 2*fullBurn {
		t.Errorf("no-burn bias %v not clearly inflated vs burned %v", noBurn, fullBurn)
	}
	if diff := fullBurn / stationary; diff < 0.5 || diff > 2 {
		t.Errorf("burned bias %v vs stationary %v: ratio %v outside [0.5, 2]", fullBurn, stationary, diff)
	}
}

func TestE18NoiseAblationQuick(t *testing.T) {
	out := runQuick(t, "E18")
	for name, tol := range map[string]float64{
		"baseline":      0.3,
		"detect_0.8":    0.3,
		"detect_0.5":    0.3,
		"spurious_0.05": 0.3,
		"lazy_0.2":      0.3,
		"biased_2111":   0.4,
	} {
		ratio := metric(t, out, name)
		if ratio < 1-tol || ratio > 1+tol {
			t.Errorf("%s: measured/predicted = %v, want within %v of 1", name, ratio, tol)
		}
	}
}

func TestE19QuorumCurveQuick(t *testing.T) {
	out := runQuick(t, "E19")
	// P[declare quorum] must not fall as the density ratio grows, at
	// either horizon. Table columns: d/theta, short t, long t.
	e, _ := ByID("E19")
	res, err := e.RunResult(Params{Seed: 12345, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Series[0].Rows
	for i := 1; i < len(rows); i++ {
		for col := 1; col <= 2; col++ {
			if prev, cur := rows[i-1][col].Value, rows[i][col].Value; cur < prev {
				t.Errorf("column %d falls from %v to %v at d/theta %v", col, prev, cur, rows[i][0].Value)
			}
		}
	}
	if lo := metric(t, out, "low_long"); lo > 0.2 {
		t.Errorf("P[quorum] at d = theta/4 = %v, want < 0.2", lo)
	}
	if hi := metric(t, out, "high_long"); hi < 0.8 {
		t.Errorf("P[quorum] at d = 4*theta = %v, want > 0.8", hi)
	}
	sharpShort := metric(t, out, "sharp_short")
	sharpLong := metric(t, out, "sharp_long")
	if sharpLong < sharpShort-0.05 {
		t.Errorf("detection did not sharpen with t: %v -> %v", sharpShort, sharpLong)
	}
}

func TestE20TaskAllocationQuick(t *testing.T) {
	out := runQuick(t, "E20")
	initial := metric(t, out, "initial_l1")
	final := metric(t, out, "final_l1")
	if final >= initial/2 {
		t.Errorf("allocation L1 did not at least halve: %v -> %v", initial, final)
	}
	if metric(t, out, "switches") == 0 {
		t.Error("no task switches occurred")
	}
}

func TestE21SensorSamplingQuick(t *testing.T) {
	out := runQuick(t, "E21")
	ring := metric(t, out, "inflation_ring")
	t2 := metric(t, out, "inflation_torus2d")
	t3 := metric(t, out, "inflation_torus3d")
	if !(ring > t2 && t2 > t3*0.8) {
		t.Errorf("inflation ordering violated: ring %v, torus2d %v, torus3d %v", ring, t2, t3)
	}
	if t2 > 6 {
		t.Errorf("2-D torus inflation = %v, want modest (Cor. 15)", t2)
	}
}

func TestE22LocalDensityQuick(t *testing.T) {
	out := runQuick(t, "E22")
	clustered := metric(t, out, "clustered_over_global")
	uniform := metric(t, out, "uniform_over_global")
	if clustered < 2 {
		t.Errorf("clustered estimate ratio = %v, want clearly inflated (> 2x global)", clustered)
	}
	if uniform < 0.7 || uniform > 1.3 {
		t.Errorf("uniform estimate ratio = %v, want ~1", uniform)
	}
}

func TestE23CrossRoundGainQuick(t *testing.T) {
	out := runQuick(t, "E23")
	if gain := metric(t, out, "gain"); gain <= 1 {
		t.Errorf("cross-round RMSE gain = %v, want > 1 (Section 6.3.3)", gain)
	}
}

func TestE24AdaptiveDetectionQuick(t *testing.T) {
	out := runQuick(t, "E24")
	for _, name := range []string{"correct_0.25", "correct_4"} {
		if rate := metric(t, out, name); rate < 0.8 {
			t.Errorf("%s = %v, want >= 0.8", name, rate)
		}
	}
	if sp, ok := out.Metrics["speedup_high"]; ok && sp < 1 {
		t.Errorf("decisions at 4x theta slower than at 2x: speedup %v", sp)
	}
}

func TestE25QueryScalingQuick(t *testing.T) {
	out := runQuick(t, "E25")
	expK := metric(t, out, "exponent_katzir")
	expO := metric(t, out, "exponent_ours")
	if expO >= expK {
		t.Errorf("multi-round query exponent %v not below snapshot exponent %v", expO, expK)
	}
	if ratio := metric(t, out, "query_ratio_largest"); ratio >= 1 {
		t.Errorf("query ratio at largest |V| = %v, want < 1", ratio)
	}
}

func TestE26AnytimeQuorumQuick(t *testing.T) {
	out := runQuick(t, "E26")
	// Decisions at the extreme ratios must be reliable and clearly
	// cheaper than near the threshold (the Section 6.2 margin rule).
	for _, name := range []string{"correct_0.25", "correct_4"} {
		if rate := metric(t, out, name); rate < 0.8 {
			t.Errorf("%s = %v, want >= 0.8", name, rate)
		}
	}
	if lo, hi := metric(t, out, "meanstop_4"), metric(t, out, "meanstop_2"); lo > hi {
		t.Errorf("mean stop at 4x theta (%v) above 2x theta (%v); margin rule violated", lo, hi)
	}
	if sv := metric(t, out, "saving_4"); sv <= 1 {
		t.Errorf("rounds saved vs fixed horizon at 4x theta = %v, want > 1", sv)
	}
}

func TestE27RobustAggregationQuick(t *testing.T) {
	out := runQuick(t, "E27")
	// With no adversaries every aggregator is near-exact.
	if e := metric(t, out, "relerr_mean_0"); e > 0.2 {
		t.Errorf("honest mean rel err = %v, want <= 0.2", e)
	}
	// The acceptance criterion: at f = 0.2, median-of-means beats the
	// plain mean — and not marginally, the mean is poisoned by ~f*boost.
	mean, mom := metric(t, out, "relerr_mean_0.2"), metric(t, out, "relerr_mom_0.2")
	if mom >= mean {
		t.Errorf("at f=0.2 median-of-means rel err %v not below mean rel err %v", mom, mean)
	}
	if mean < 1 {
		t.Errorf("at f=0.2 mean rel err = %v; +%d inflators on 20%% of agents should poison it past 1", mean, advBoost)
	}
	if mom > 0.5 {
		t.Errorf("at f=0.2 median-of-means rel err = %v, want <= 0.5", mom)
	}
	if med := metric(t, out, "relerr_median_0.2"); med > 0.5 {
		t.Errorf("at f=0.2 median rel err = %v, want <= 0.5", med)
	}
}

func TestE28StrategyComparisonQuick(t *testing.T) {
	out := runQuick(t, "E28")
	d := 41.0 / 400
	// Inflate poisons the mean upward; median-of-means shrugs it off.
	if m := metric(t, out, "mean_inflate"); m < 2*d {
		t.Errorf("mean under inflate = %v, want >= %v", m, 2*d)
	}
	if m := metric(t, out, "mom_inflate"); m > 2*d {
		t.Errorf("median-of-means under inflate = %v, want <= %v", m, 2*d)
	}
	// Honest d = 0.1025 > theta = 0.08: the trimmed vote must stay a
	// clear yes under every strategy; the plain vote loses the
	// deflators/crashers.
	for _, s := range []string{"inflate", "deflate", "random", "stall", "crash"} {
		if tv := metric(t, out, "trimvote_"+s); tv < 0.75 {
			t.Errorf("trimmed vote fraction under %s = %v, want >= 0.75", s, tv)
		}
	}
	if vf, tv := metric(t, out, "votefrac_deflate"), metric(t, out, "trimvote_deflate"); vf >= tv {
		t.Errorf("plain vote under deflate (%v) not below trimmed vote (%v)", vf, tv)
	}
}

func TestE29DetectionQuick(t *testing.T) {
	out := runQuick(t, "E29")
	// Inflators contradict every honest cellmate: near-perfect recall
	// at low f, and honest agents stay mostly unflagged.
	if tpr := metric(t, out, "tpr_0.2"); tpr < 0.9 {
		t.Errorf("TPR at f=0.2 = %v, want >= 0.9", tpr)
	}
	if fpr := metric(t, out, "fpr_0.2"); fpr > 0.15 {
		t.Errorf("FPR at f=0.2 = %v, want <= 0.15", fpr)
	}
	if lo, hi := metric(t, out, "fpr_0.1"), metric(t, out, "fpr_0.4"); lo > hi {
		t.Errorf("FPR at f=0.1 (%v) above f=0.4 (%v); liar-dominated cells should hurt, not help", lo, hi)
	}
}

func TestExperimentsRenderTables(t *testing.T) {
	// Smoke test: every experiment writes at least one table row to
	// its output in quick mode.
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			if _, err := e.Run(Params{Seed: 999, Quick: true, Out: &sb}); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !strings.Contains(sb.String(), "---") {
				t.Errorf("%s produced no table output", e.ID)
			}
		})
	}
}
