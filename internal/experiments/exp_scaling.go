package experiments

// E25 bills link queries for the Katzir snapshot and multi-round
// counting from seed-vertex walkers with a fixed burn-in; a
// NetworkSizeSpec runs only the multi-round pipeline and derives its
// own burn-in, so E25 drives internal/netsize's walkers directly.

import (
	"fmt"
	"math"

	"antdensity/internal/netsize"
	"antdensity/internal/results"
	"antdensity/internal/rng"
	"antdensity/internal/stats"
	"antdensity/internal/topology"
)

var e25Axes = []Axis{
	IntAxis("side", []int{7, 11, 15}, []int{7, 11}).WithUnit("torus side"),
	StringAxis("strategy", []string{"katzir", "multiround"}, nil),
}

func init() {
	register(Experiment{
		ID:    "E25",
		Title: "Query scaling in |V|: multi-round walks vs snapshot on 3-D tori",
		Claim: "Section 5.1.5 example: [KLSC14] needs ~|V|^(2/k+1/2) queries on the k=3 torus; multi-round needs ~|V|^((k+1)/2k)",
		Axes:  e25Axes,
		Columns: []results.Column{
			{Name: "num_nodes", Unit: "nodes"},
			{Name: "walkers", Unit: "walkers"},
			{Name: "steps", Unit: "rounds"},
			{Name: "queries", Unit: "link queries"},
			{Name: "mean_abs_rel_err"},
		},
		Cell: cellE25,
		Body: runE25,
	})
}

// e25Budget derives one torus side's mixing parameters and walker
// budgets. Walker budgets come from the theory: the snapshot estimator
// needs n_K = Theta(sqrt(|V|)) walkers; with B(t) = O(1) on the 3-D
// torus, Theorem 27 lets the multi-round estimator shrink to
// n = Theta(sqrt(|V|/t)) with t = Theta(M). Constants chosen so both
// achieve comparable error at the smallest size. An even side makes
// the torus bipartite: walkers started at one seed vertex never mix
// there (λ = 1, so no burn-in suffices), and the side is refused.
func e25Budget(p Params, side int) (g *topology.Torus, m, nK, nOurs int, err error) {
	s := rng.New(p.Seed)
	g = topology.MustTorus(3, int64(side))
	if topology.IsBipartite(g) {
		return nil, 0, 0, 0, fmt.Errorf("E25: the side-%d torus is bipartite, so walkers started at one seed vertex never mix; use an odd side", side)
	}
	vcount := g.NumNodes()
	lambda := topology.SpectralGap(g, 400, s.Split(uint64(side)))
	m = topology.MixingTime(topology.NumEdges(g), lambda, 0.1)
	nK = int(math.Ceil(4 * math.Sqrt(float64(vcount))))
	nOurs = int(math.Ceil(6 * math.Sqrt(float64(vcount)/float64(m))))
	if nOurs < 6 {
		nOurs = 6
	}
	return g, m, nK, nOurs, nil
}

// cellE25 runs one (side, strategy) cell from burned-in seed-vertex
// walkers and reports its walker/step budget, mean query bill, and
// mean relative error of C.
func cellE25(p Params, pt Point) ([]results.Cell, error) {
	side, strategy := pt.Int("side"), pt.String("strategy")
	trials := pick(p, 8, 4)
	g, m, nK, nOurs, err := e25Budget(p, side)
	if err != nil {
		return nil, err
	}
	truth := 1 / float64(g.NumNodes())
	var walkers, steps int
	var seedBase uint64
	switch strategy {
	case "katzir":
		walkers, steps, seedBase = nK, 0, uint64(side)*100
	case "multiround":
		walkers, steps, seedBase = nOurs, m, uint64(side)*100+50
	default:
		return nil, fmt.Errorf("E25: unknown strategy %q", strategy)
	}
	res, err := p.runTrials(TrialSpec{
		Name:   "E25",
		Trials: trials,
		Seed:   p.Seed + seedBase,
		Run: func(tr Trial) (TrialResult, error) {
			var r TrialResult
			w, err := netsize.NewWalkersAtSeed(g, walkers, 0, tr.Stream)
			if err != nil {
				return r, err
			}
			w.BurnIn(m)
			var c float64
			if steps == 0 {
				c = w.KatzirEstimate(0).C
			} else {
				est, err := w.EstimateSize(steps, 0)
				if err != nil {
					return r, err
				}
				c = est.C
			}
			r.Samples = []float64{c}
			r.Set("queries", float64(w.Queries()))
			return r, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return []results.Cell{
		results.Int(g.NumNodes()),
		results.Int(int64(walkers)),
		results.Int(int64(steps)),
		results.Float(res.MeanValue("queries")).WithN(trials),
		results.Float(stats.Mean(stats.RelErrors(res.Samples(), truth))).WithN(trials),
	}, nil
}

// runE25 reproduces the paper's illustrative asymptotic comparison:
// on k-dimensional tori (k=3) the snapshot estimator's query bill is
// dominated by n_K ~ sqrt(|V|) walkers each paying the burn-in M,
// while the multi-round estimator runs n ~ n_K/4 walkers for t = M
// extra steps and still collects more collision signal. The cells
// sweep |V| and charge both strategies their actual link queries; the
// body fits query growth exponents.
func runE25(p Params, rep *Report) error {
	sizes, queries := rep.Floats("num_nodes"), rep.Floats("queries")
	var katzirSizes, qKatzir, qOurs []float64
	var lastRatio, lastKatzir float64
	for i, strategy := range rep.Labels("strategy") {
		switch strategy {
		case "katzir":
			katzirSizes = append(katzirSizes, sizes[i])
			qKatzir = append(qKatzir, queries[i])
			lastKatzir = queries[i]
		case "multiround":
			qOurs = append(qOurs, queries[i])
			lastRatio = queries[i] / lastKatzir
		}
	}
	expK, _, _ := stats.FitPowerLaw(katzirSizes, qKatzir)
	expO, _, _ := stats.FitPowerLaw(katzirSizes, qOurs)
	rep.SetMetric("exponent_katzir", expK)
	rep.SetMetric("exponent_ours", expO)
	rep.SetMetric("query_ratio_largest", lastRatio)
	rep.Notef("paper (k=3): snapshot ~|V|^1.17, multi-round ~|V|^0.67 (both x polylog); measured query exponents %.2f vs %.2f, query ratio at largest |V| = %.2f", expK, expO, lastRatio)
	return nil
}
