package adversary

import (
	"cmp"
	"math"
	"slices"

	"antdensity/internal/sim"
	"antdensity/internal/stats"
)

// DetectorConfig tunes the dishonesty detector. The zero value is the
// sensible default for exact sensing: any disagreement with co-located
// peers is a contradiction, agents need MinObs co-location
// opportunities before they can be flagged, and an agent is flagged
// when it contradicts its peers in more than half of them.
type DetectorConfig struct {
	// Tol is the allowed |report - peer median| before a co-location
	// counts as a contradiction; raise it under sensing noise.
	Tol float64
	// MinObs is the minimum number of co-location opportunities before
	// an agent is eligible for flagging. 0 means 3.
	MinObs int
	// FlagRate is the contradiction rate above which an eligible agent
	// is flagged. 0 means 0.5 — a flagged agent contradicted the
	// co-located majority more often than not.
	FlagRate float64
}

func (c DetectorConfig) minObs() int {
	if c.MinObs == 0 {
		return 3
	}
	return c.MinObs
}

func (c DetectorConfig) flagRate() float64 {
	if c.FlagRate == 0 {
		return 0.5
	}
	return c.FlagRate
}

// Detector flags dishonest agents from contradictory pairwise
// observations. Each round, agents sharing a cell all saw the same
// collisions, so their reports must (up to Tol) agree: when agent i
// claims a count at cell c that the co-located agents' consensus —
// the median of their reports — contradicts, i accrues a strike.
// Honest agents only strike when liars dominate their cell, which at
// adversary fractions below one half is the exception, so strike
// *rate* separates the populations.
//
// The Detector is an ordinary pipeline observer. Reports come from
// the Tamperer's memoized per-round filter, so detection audits
// exactly what the estimators accumulated; run it after the
// estimation observer in the observer list (with no estimator in the
// run, the Detector drives the Tamperer itself). A nil Tamperer
// audits honest reports — the false-positive baseline.
type Detector struct {
	t   *Tamperer
	cfg DetectorConfig

	strikes []int
	obs     []int

	// Round scratch, reused: the ids of agents sharing a cell, sorted
	// by cell, and the peer reports fed to the consensus median.
	order []int
	peers []float64
}

// NewDetector returns a Detector for n agents auditing t's reports.
func NewDetector(n int, t *Tamperer, cfg DetectorConfig) *Detector {
	return &Detector{
		t:       t,
		cfg:     cfg,
		strikes: make([]int, n),
		obs:     make([]int, n),
		order:   make([]int, 0, n),
	}
}

// Observe audits one round: it groups agents by cell and scores every
// member of a shared cell against its co-located peers' consensus.
// Only an agent whose true count is above 0 shares its cell, so only
// those are sorted, by (cell, id).
func (d *Detector) Observe(r *sim.Round) sim.Signal {
	counts := r.Counts()
	reports := counts
	if d.t != nil {
		reports = d.t.report(r.Index(), counts)
	}
	w := r.World()
	d.order = d.order[:0]
	for i, c := range counts {
		if c > 0 {
			d.order = append(d.order, i)
		}
	}
	slices.SortFunc(d.order, func(a, b int) int {
		if c := cmp.Compare(w.Pos(a), w.Pos(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	n := len(d.order)
	for lo := 0; lo < n; {
		hi := lo + 1
		p := w.Pos(d.order[lo])
		for hi < n && w.Pos(d.order[hi]) == p {
			hi++
		}
		if hi-lo >= 2 {
			d.scoreCell(d.order[lo:hi], reports)
		}
		lo = hi
	}
	return sim.Continue
}

// scoreCell scores one shared cell's members against each other.
func (d *Detector) scoreCell(cell []int, reports []int) {
	for _, i := range cell {
		d.peers = d.peers[:0]
		for _, j := range cell {
			if j != i {
				d.peers = append(d.peers, float64(reports[j]))
			}
		}
		consensus := stats.Median(d.peers)
		d.obs[i]++
		if math.Abs(float64(reports[i])-consensus) > d.cfg.Tol {
			d.strikes[i]++
		}
	}
}

// Opportunities returns how many co-location audits agent i has had.
func (d *Detector) Opportunities(i int) int { return d.obs[i] }

// Strikes returns how many of agent i's audits contradicted the
// co-located consensus.
func (d *Detector) Strikes(i int) int { return d.strikes[i] }

// Flagged returns the per-agent verdicts: flagged[i] reports whether
// agent i contradicted its co-located peers in more than FlagRate of
// at least MinObs opportunities.
func (d *Detector) Flagged() []bool {
	out := make([]bool, len(d.obs))
	minObs, rate := d.cfg.minObs(), d.cfg.flagRate()
	for i := range out {
		out[i] = d.obs[i] >= minObs && float64(d.strikes[i]) > rate*float64(d.obs[i])
	}
	return out
}

// Rates scores the verdicts against a ground-truth adversary mask
// (Tamperer.Mask): the true-positive rate over adversarial agents (0
// when there are none), the false-positive rate over honest agents (0
// when there are none), and the total number of flagged agents.
func (d *Detector) Rates(truth []bool) (tpr, fpr float64, flagged int) {
	var tp, fn, fp, tn int
	for i, f := range d.Flagged() {
		switch {
		case f && truth[i]:
			tp++
		case f && !truth[i]:
			fp++
		case !f && truth[i]:
			fn++
		default:
			tn++
		}
		if f {
			flagged++
		}
	}
	if tp+fn > 0 {
		tpr = float64(tp) / float64(tp+fn)
	}
	if fp+tn > 0 {
		fpr = float64(fp) / float64(fp+tn)
	}
	return tpr, fpr, flagged
}
