package antdensity

// This file is the v2 API's execution layer: a Run is one compiled
// Spec executing on its own goroutine with cooperative context
// cancellation (plumbed through sim.RunContext, so a cancelled run
// returns within one round of ctx.Done() and always leaves its world
// consistent on a round boundary) and live anytime snapshots — the
// paper's whole point is that Algorithm 1's estimate improves every
// round, and Snapshot exposes exactly that mid-flight view to other
// goroutines without blocking the stepping loop (an atomic pointer
// swap per published round; readers never take a lock the hot path
// holds).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"antdensity/internal/adversary"
	"antdensity/internal/core"
	"antdensity/internal/netsize"
	"antdensity/internal/quorum"
	"antdensity/internal/results"
	"antdensity/internal/sim"
	"antdensity/internal/stats"
)

// RunResult is the schema-stable structured outcome of a Run — the
// same typed Result/Series/Cell model the experiments stack renders
// to text, JSON, and CSV (internal/results). The serve API's
// /v1/runs/{id}/result payload is exactly this type's JSON encoding.
type RunResult = results.Result

// RunState is a Run's lifecycle phase.
type RunState int32

const (
	// StatePending: compiled but not yet started.
	StatePending RunState = iota
	// StateQueued: submitted to a Manager, waiting for a worker slot.
	StateQueued
	// StateRunning: executing.
	StateRunning
	// StateDone: finished successfully; Result and Output are ready.
	StateDone
	// StateCanceled: stopped by context cancellation or Cancel.
	StateCanceled
	// StateFailed: stopped by a non-cancellation error.
	StateFailed
)

var stateNames = [...]string{"pending", "queued", "running", "done", "canceled", "failed"}

// String returns the state's wire name.
func (s RunState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("RunState(%d)", int32(s))
}

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// Snapshot is a Run's live anytime view: how far it has progressed
// and what every agent currently estimates. Snapshots are immutable
// once published — treat the slices as read-only; they are shared
// with every other reader of the same snapshot.
type Snapshot struct {
	// State is the run's lifecycle phase at read time.
	State RunState
	// Round is the number of completed observed rounds (for netsize:
	// burn-in plus counting rounds).
	Round int
	// MaxRounds is the planned horizon. Adaptive quorum runs may
	// finish below it.
	MaxRounds int
	// Progress is Round/MaxRounds in [0, 1].
	Progress float64
	// NumAgents is the number of agents (walkers for netsize).
	NumAgents int
	// Estimates holds each agent's current estimate: the running
	// density c/round for density-family runs, the property frequency
	// f_P for property runs; nil for netsize.
	Estimates []float64
	// CIHalf holds each agent's anytime confidence half-width at the
	// Spec's Delta level (density and adaptive quorum runs; +Inf
	// before an agent's first collision), nil for other kinds.
	CIHalf []float64
	// Mean is the mean of the finite Estimates (0 when none).
	Mean float64
	// Decided is the number of agents that have stopped with a
	// decision (adaptive quorum only).
	Decided int
	// YesVotes counts agents currently at or above the threshold
	// (quorum kinds).
	YesVotes int
	// Err is the terminal error message, if the run failed or was
	// cancelled.
	Err string
}

// Output is a Run's typed outcome; exactly the fields matching the
// Spec's Kind are populated.
type Output struct {
	// Rounds is the number of rounds actually executed.
	Rounds int
	// Estimates holds per-agent density estimates (density and
	// independent kinds).
	Estimates []float64
	// Property holds the property-frequency outputs (KindProperty).
	Property *PropertyResult
	// Votes holds per-agent quorum votes (KindQuorum).
	Votes []bool
	// Anytime holds the adaptive quorum outcome (KindQuorumAdaptive).
	Anytime *QuorumAnytimeResult
	// NetworkSize holds the netsize outcome (KindNetworkSize).
	NetworkSize *NetworkSizeResult
}

// Run is one executing (or executed) estimation run. Compile a Spec
// into a Run with Spec.NewRun, start it with Start, follow it with
// Snapshot from any goroutine, and collect the outcome with Wait /
// Output / Result. A Run executes exactly once; it is not reusable.
type Run struct {
	spec      *Spec
	world     *World // nil for netsize
	numAgents int
	exec      func(ctx context.Context) (Output, *results.Result, error)

	state   atomic.Int32
	snap    atomic.Pointer[Snapshot]
	updated atomic.Pointer[chan struct{}]

	mu       sync.Mutex
	started  bool
	cancelFn context.CancelFunc
	done     chan struct{}
	err      error
	output   Output
	result   *results.Result
}

// NewRun validates and compiles the Spec. All configuration errors
// (including world construction) surface here, before anything runs.
// The Spec must not be mutated afterwards.
func (s *Spec) NewRun() (*Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := &Run{spec: s, done: make(chan struct{})}
	watch := make(chan struct{})
	r.updated.Store(&watch)
	var err error
	switch s.Kind {
	case KindNetworkSize:
		r.numAgents = s.Walkers
		err = r.compileNetsize()
	default:
		r.world, err = s.buildWorld()
		if err == nil {
			r.numAgents = r.world.NumAgents()
			switch s.Kind {
			case KindDensity:
				err = r.compileDensity()
			case KindIndependent:
				r.compileIndependent()
			case KindProperty:
				err = r.compileProperty()
			case KindQuorum:
				err = r.compileQuorum()
			case KindQuorumAdaptive:
				err = r.compileAdaptiveQuorum()
			}
		}
	}
	if err != nil {
		return nil, err
	}
	r.snap.Store(&Snapshot{State: StatePending, MaxRounds: s.Rounds, NumAgents: r.numAgents})
	return r, nil
}

// Start begins executing the Spec. Start launches a Run, validating
// and compiling it first; it returns the started Run.
func (s *Spec) Start(ctx context.Context) (*Run, error) {
	r, err := s.NewRun()
	if err != nil {
		return nil, err
	}
	if err := r.Start(ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// Spec returns the Spec the run was compiled from (read-only).
func (r *Run) Spec() *Spec { return r.spec }

// State returns the run's current lifecycle phase.
func (r *Run) State() RunState { return RunState(r.state.Load()) }

// markQueued transitions Pending -> Queued (Manager admission).
func (r *Run) markQueued() { r.state.CompareAndSwap(int32(StatePending), int32(StateQueued)) }

// Start launches the run on its own goroutine. The context governs
// the whole run: cancelling it (or its deadline passing) stops the
// run cooperatively within one round. Start returns an error if the
// run was already started or cancelled.
func (r *Run) Start(ctx context.Context) error {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return errors.New("antdensity: Run already started")
	}
	r.started = true
	cctx, cancel := context.WithCancel(ctx)
	r.cancelFn = cancel
	r.state.Store(int32(StateRunning))
	r.mu.Unlock()
	go r.loop(cctx)
	return nil
}

// loop executes the compiled engine and records the terminal state.
func (r *Run) loop(ctx context.Context) {
	out, res, err := r.safeExec(ctx)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.output, r.result, r.err = out, res, err
	switch {
	case err == nil:
		r.state.Store(int32(StateDone))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.state.Store(int32(StateCanceled))
	default:
		r.state.Store(int32(StateFailed))
	}
	final := *r.snap.Load()
	final.State = r.State()
	if err != nil {
		final.Err = err.Error()
	}
	r.snap.Store(&final)
	r.wake()
	if r.cancelFn != nil {
		r.cancelFn() // release the context's resources
	}
	close(r.done)
}

// safeExec runs the engine, converting a panic (reachable only
// through inputs validation cannot see, e.g. a hostile Graph
// implementation) into a Failed-state error so a Manager full of
// other runs survives.
func (r *Run) safeExec(ctx context.Context) (out Output, res *results.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, res = Output{}, nil
			err = fmt.Errorf("antdensity: run panicked: %v", p)
		}
	}()
	return r.exec(ctx)
}

// Cancel stops the run cooperatively: a running run returns within
// one round with Err() == context.Canceled; a pending or queued run
// finishes immediately without executing. Cancel is safe to call from
// any goroutine and more than once.
func (r *Run) Cancel() {
	r.mu.Lock()
	if r.started {
		cancel := r.cancelFn
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return
	}
	// Never started: finish as cancelled right here.
	r.started = true
	r.err = context.Canceled
	r.state.Store(int32(StateCanceled))
	final := *r.snap.Load()
	final.State = StateCanceled
	final.Err = r.err.Error()
	r.snap.Store(&final)
	r.wake()
	close(r.done)
	r.mu.Unlock()
}

// Done returns a channel closed when the run reaches a terminal
// state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Wait blocks until the run terminates and returns its error: nil on
// success, context.Canceled (or DeadlineExceeded) after cancellation,
// or the failure that stopped it.
func (r *Run) Wait() error {
	<-r.done
	return r.Err()
}

// Err returns the terminal error, or nil while the run is still
// pending or executing (and after success).
func (r *Run) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.State().Terminal() {
		return nil
	}
	return r.err
}

// Snapshot returns the latest published anytime view. It never
// blocks the run: publication is an atomic pointer swap on round
// boundaries, and readers share the immutable published value.
func (r *Run) Snapshot() Snapshot {
	snap := *r.snap.Load()
	if !snap.State.Terminal() {
		// Pending/queued/running transitions happen without a fresh
		// measurement; surface the current phase.
		snap.State = r.State()
	}
	return snap
}

// Output blocks until the run terminates and returns its typed
// outcome (or the terminal error).
func (r *Run) Output() (Output, error) {
	if err := r.Wait(); err != nil {
		return Output{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.output, nil
}

// Result blocks until the run terminates and returns its structured,
// schema-stable result (see RunResult), or the terminal error.
func (r *Run) Result() (*RunResult, error) {
	if err := r.Wait(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, nil
}

// publish stores a fresh snapshot (run goroutine only) and wakes
// every Updated watcher.
func (r *Run) publish(snap Snapshot) {
	r.snap.Store(&snap)
	r.wake()
}

// wake closes the current Updated channel and installs a fresh one —
// the closed-channel broadcast: every watcher parked on the old
// channel unblocks and re-reads Snapshot.
func (r *Run) wake() {
	fresh := make(chan struct{})
	old := r.updated.Swap(&fresh)
	close(*old)
}

// Updated returns a channel closed the next time the run publishes a
// snapshot (or reaches a terminal state — see Done for a channel that
// stays closed). The intended pattern for streaming consumers:
//
//	for {
//	        ch := run.Updated()
//	        snap := run.Snapshot()
//	        ... emit snap ...
//	        if snap.State.Terminal() { return }
//	        select {
//	        case <-ch:
//	        case <-run.Done():
//	        case <-ctx.Done():
//	                return
//	        }
//	}
//
// Reading the channel before the snapshot guarantees no update is
// missed: a publish after the Snapshot read closes the returned
// channel.
func (r *Run) Updated() <-chan struct{} { return *r.updated.Load() }

// measureFn fills a snapshot's kind-specific estimate fields for the
// given completed-round count.
type measureFn func(round int, snap *Snapshot)

// snapshotAt measures and publishes the view after `round` completed
// rounds.
func (r *Run) snapshotAt(round, maxRounds int, measure measureFn) {
	snap := Snapshot{
		State:     StateRunning,
		Round:     round,
		MaxRounds: maxRounds,
		Progress:  float64(round) / float64(maxRounds),
		NumAgents: r.numAgents,
	}
	if measure != nil && round > 0 {
		measure(round, &snap)
	}
	r.publish(snap)
}

// publisher returns a pipeline observer that publishes a snapshot
// every SnapshotEvery rounds (and on the final round of a full-length
// run), recording every observed round in *last so the engine can
// republish an exact final snapshot when the run stops between
// strides (early stop or cancellation).
func (r *Run) publisher(maxRounds int, measure measureFn, last *int) sim.Observer {
	every := r.spec.snapshotEvery()
	return sim.ObserverFunc(func(rd *sim.Round) sim.Signal {
		round := rd.Index()
		*last = round
		if round%every == 0 || round == maxRounds {
			r.snapshotAt(round, maxRounds, measure)
		}
		return sim.Continue
	})
}

// meanFinite returns the mean of the finite values (0 when none).
func meanFinite(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// bandHalf returns the anytime confidence half-width for a running
// estimate after `rounds` rounds — the StreamingEstimator.Interval
// band shape with the Spec's delta and c1.
func (r *Run) bandHalf(est float64, rounds int) float64 {
	if rounds == 0 || est == 0 {
		return math.Inf(1)
	}
	plugin := est
	if plugin > 1 {
		plugin = 1
	}
	return core.TheoremOneEpsilon(rounds, plugin, r.spec.delta(), r.spec.c1()) * est
}

// countEstimates converts accumulated collision counts to running
// density estimates c/round, with anytime bands when wantCI.
func (r *Run) countEstimates(counts []int64, round int, wantCI bool) (ests, half []float64) {
	ests = make([]float64, len(counts))
	if wantCI {
		half = make([]float64, len(counts))
	}
	for i, c := range counts {
		ests[i] = float64(c) / float64(round)
		if wantCI {
			half[i] = r.bandHalf(ests[i], round)
		}
	}
	return ests, half
}

// baseResult starts a structured result carrying the run's identity.
func (r *Run) baseResult(title string) *results.Result {
	return &results.Result{ID: r.spec.Kind.String(), Title: title, Seed: r.spec.Seed}
}

// compileAdversary builds the Spec's Tamperer — attached to the run's
// world, so stall adversaries physically freeze — and a Detector
// auditing its reports. Both are nil when the Spec has no adversary.
func (r *Run) compileAdversary() (*adversary.Tamperer, *adversary.Detector, error) {
	tam, err := r.spec.tamperer(r.numAgents)
	if tam == nil || err != nil {
		return nil, nil, err
	}
	tam.Attach(r.world)
	return tam, adversary.NewDetector(r.numAgents, tam, adversary.DetectorConfig{}), nil
}

// addAdversaryMetrics records the adversarial population, every
// stats.Aggregator of the per-agent estimates (robust locations beside
// the mean — the comparison the adversary experiments plot), and the
// detection rates scored against the ground-truth mask.
func addAdversaryMetrics(res *results.Result, ests []float64, tam *adversary.Tamperer, audit *adversary.Detector) {
	res.SetMetric("adversaries", float64(tam.NumAdversarial()))
	res.SetMetric("adversary_fraction", tam.Config().Fraction)
	for _, agg := range stats.Aggregators() {
		res.SetMetric("estimate_"+agg.String(), agg.Aggregate(ests))
	}
	tpr, fpr, flagged := audit.Rates(tam.Mask())
	res.SetMetric("detect_tpr", tpr)
	res.SetMetric("detect_fpr", fpr)
	res.SetMetric("detect_flagged", float64(flagged))
}

// compileDensity builds the KindDensity engine: Algorithm 1 through
// the observation pipeline, with a snapshot publisher riding along.
func (r *Run) compileDensity() error {
	tam, audit, err := r.compileAdversary()
	if err != nil {
		return err
	}
	opts := r.spec.estimatorOptions()
	if tam != nil {
		opts = append(opts, core.WithReportFilter(tam.Filter()))
	}
	obs, err := core.NewCollisionObserver(r.numAgents, opts...)
	if err != nil {
		return err
	}
	t := r.spec.Rounds
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		measure := func(round int, snap *Snapshot) {
			snap.Estimates, snap.CIHalf = r.countEstimates(obs.Counts(), round, true)
			snap.Mean = meanFinite(snap.Estimates)
		}
		var last int
		// The audit detector rides after the estimator, so it reads the
		// Tamperer's memoized per-round reports (see adversary.Detector).
		pipeline := []sim.Observer{obs}
		if audit != nil {
			pipeline = append(pipeline, audit)
		}
		pipeline = append(pipeline, r.publisher(t, measure, &last))
		_, err := sim.RunContext(ctx, r.world, t, pipeline...)
		r.snapshotAt(last, t, measure) // exact final view, even mid-stride
		if err != nil {
			return Output{}, nil, err
		}
		// Divide by the requested horizon t (== rounds executed on
		// success), exactly matching Algorithm 1's c/t.
		ests := make([]float64, r.numAgents)
		for i, c := range obs.Counts() {
			ests[i] = float64(c) / float64(t)
		}
		res := r.baseResult("Algorithm 1 encounter-rate density estimation")
		r.addEstimateSeries(res, ests)
		res.SetMetric("rounds", float64(t))
		res.SetMetric("num_agents", float64(r.numAgents))
		res.SetMetric("true_density", r.world.Density())
		res.SetMetric("mean_estimate", meanFinite(ests))
		if tam != nil {
			addAdversaryMetrics(res, ests, tam, audit)
		}
		return Output{Rounds: t, Estimates: ests}, res, nil
	}
	return nil
}

// compileIndependent builds the KindIndependent engine (Algorithm 4).
func (r *Run) compileIndependent() {
	obs := core.NewIndependentObserver(r.numAgents)
	t := r.spec.Rounds
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		core.SetupAlgorithm4(r.world, r.spec.PolicySeed)
		measure := func(round int, snap *Snapshot) {
			snap.Estimates = obs.Estimates(round)
			snap.Mean = meanFinite(snap.Estimates)
		}
		var last int
		_, err := sim.RunContext(ctx, r.world, t, obs, r.publisher(t, measure, &last))
		r.snapshotAt(last, t, measure)
		if err != nil {
			return Output{}, nil, err
		}
		ests := obs.Estimates(t)
		res := r.baseResult("Algorithm 4 independent-sampling density estimation")
		r.addEstimateSeries(res, ests)
		res.SetMetric("rounds", float64(t))
		res.SetMetric("num_agents", float64(r.numAgents))
		res.SetMetric("true_density", r.world.Density())
		res.SetMetric("mean_estimate", meanFinite(ests))
		return Output{Rounds: t, Estimates: ests}, res, nil
	}
}

// compileProperty builds the KindProperty engine (Section 5.2).
func (r *Run) compileProperty() error {
	tam, audit, err := r.compileAdversary()
	if err != nil {
		return err
	}
	opts := r.spec.estimatorOptions()
	if tam != nil {
		opts = append(opts,
			core.WithReportFilter(tam.Filter()),
			core.WithTaggedReportFilter(tam.TaggedFilter()))
	}
	obs, err := core.NewPropertyObserver(r.numAgents, opts...)
	if err != nil {
		return err
	}
	t := r.spec.Rounds
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		measure := func(round int, snap *Snapshot) {
			snap.Estimates = obs.Result().Frequency
			snap.Mean = meanFinite(snap.Estimates)
		}
		var last int
		pipeline := []sim.Observer{obs}
		if audit != nil {
			pipeline = append(pipeline, audit)
		}
		pipeline = append(pipeline, r.publisher(t, measure, &last))
		_, err := sim.RunContext(ctx, r.world, t, pipeline...)
		r.snapshotAt(last, t, measure)
		if err != nil {
			return Output{}, nil, err
		}
		pr := obs.Result()
		res := r.baseResult("Section 5.2 property-frequency estimation")
		series := res.AddSeries("agents", results.Cols("agent", "density", "property_density", "frequency")...)
		for i := range pr.Density {
			series.AddRow(i, pr.Density[i], pr.PropertyDensity[i], pr.Frequency[i])
		}
		res.SetMetric("rounds", float64(t))
		res.SetMetric("num_agents", float64(r.numAgents))
		res.SetMetric("mean_frequency", meanFinite(pr.Frequency))
		if tam != nil {
			addAdversaryMetrics(res, pr.Frequency, tam, audit)
		}
		return Output{Rounds: t, Property: pr}, res, nil
	}
	return nil
}

// compileQuorum builds the KindQuorum engine: Algorithm 1 counting
// plus a threshold vote at the horizon.
func (r *Run) compileQuorum() error {
	tam, audit, err := r.compileAdversary()
	if err != nil {
		return err
	}
	opts := r.spec.estimatorOptions()
	if tam != nil {
		opts = append(opts, core.WithReportFilter(tam.Filter()))
	}
	obs, err := core.NewCollisionObserver(r.numAgents, opts...)
	if err != nil {
		return err
	}
	t, threshold := r.spec.Rounds, r.spec.Threshold
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		measure := func(round int, snap *Snapshot) {
			snap.Estimates, snap.CIHalf = r.countEstimates(obs.Counts(), round, true)
			snap.Mean = meanFinite(snap.Estimates)
			for _, e := range snap.Estimates {
				if e >= threshold {
					snap.YesVotes++
				}
			}
		}
		var last int
		pipeline := []sim.Observer{obs}
		if audit != nil {
			pipeline = append(pipeline, audit)
		}
		pipeline = append(pipeline, r.publisher(t, measure, &last))
		_, err := sim.RunContext(ctx, r.world, t, pipeline...)
		r.snapshotAt(last, t, measure)
		if err != nil {
			return Output{}, nil, err
		}
		ests := make([]float64, r.numAgents)
		for i, c := range obs.Counts() {
			ests[i] = float64(c) / float64(t)
		}
		votes := quorum.Votes(ests, threshold)
		res := r.baseResult("Section 6.2 fixed-horizon quorum vote")
		series := res.AddSeries("votes", results.Cols("agent", "estimate", "vote")...)
		yes := 0
		for i, v := range votes {
			series.AddRow(i, ests[i], v)
			if v {
				yes++
			}
		}
		res.SetMetric("rounds", float64(t))
		res.SetMetric("threshold", threshold)
		res.SetMetric("yes_votes", float64(yes))
		res.SetMetric("vote_fraction", quorum.VoteFraction(votes))
		res.SetMetric("majority", boolMetric(quorum.MajorityVote(votes)))
		if tam != nil {
			addAdversaryMetrics(res, ests, tam, audit)
			res.SetMetric("trimmed_vote_fraction", quorum.TrimmedVoteFraction(ests, threshold, 0.25))
			res.SetMetric("trimmed_majority", boolMetric(quorum.TrimmedMajority(ests, threshold, 0.25)))
		}
		return Output{Rounds: t, Votes: votes}, res, nil
	}
	return nil
}

// compileAdaptiveQuorum builds the KindQuorumAdaptive engine: the
// per-agent anytime detector with early stopping.
func (r *Run) compileAdaptiveQuorum() error {
	det, err := quorum.NewAnytimeDetector(r.numAgents, r.spec.Threshold, r.spec.delta(), r.spec.c1())
	if err != nil {
		return err
	}
	tam, audit, err := r.compileAdversary()
	if err != nil {
		return err
	}
	if tam != nil {
		det.SetReportFilter(tam.Filter())
	}
	maxRounds := r.spec.Rounds
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		measure := func(round int, snap *Snapshot) {
			ests := make([]float64, r.numAgents)
			half := make([]float64, r.numAgents)
			for i := range ests {
				ests[i], half[i] = det.Interval(i)
				if det.Decision(i) == +1 {
					snap.YesVotes++
				}
			}
			snap.Estimates, snap.CIHalf = ests, half
			snap.Mean = meanFinite(ests)
			snap.Decided = det.NumDecided()
		}
		var last int
		// The anytime detector observes first (it is the filter's first
		// caller each round), then the audit, then the publisher.
		extra := []sim.Observer{}
		if audit != nil {
			extra = append(extra, audit)
		}
		extra = append(extra, r.publisher(maxRounds, measure, &last))
		ar, err := det.DecideContext(ctx, r.world, maxRounds, extra...)
		// Early stop and cancellation both land between publication
		// strides; republish the exact final view.
		r.snapshotAt(last, maxRounds, measure)
		if err != nil {
			return Output{}, nil, err
		}
		res := r.baseResult("Section 6.2 anytime quorum decision")
		series := res.AddSeries("decisions", results.Cols("agent", "decision", "stop_round")...)
		yes, undecided := 0, 0
		votes := make([]bool, len(ar.Decision))
		for i, d := range ar.Decision {
			series.AddRow(i, d, ar.StopRound[i])
			votes[i] = d == +1
			if d == +1 {
				yes++
			}
			if d == 0 {
				undecided++
			}
		}
		res.SetMetric("rounds", float64(ar.Rounds))
		res.SetMetric("max_rounds", float64(maxRounds))
		res.SetMetric("threshold", r.spec.Threshold)
		res.SetMetric("yes_votes", float64(yes))
		res.SetMetric("undecided", float64(undecided))
		res.SetMetric("vote_fraction", quorum.VoteFraction(votes))
		res.SetMetric("majority", boolMetric(quorum.MajorityVote(votes)))
		if tam != nil {
			ests := make([]float64, r.numAgents)
			for i := range ests {
				ests[i], _ = det.Interval(i)
			}
			addAdversaryMetrics(res, ests, tam, audit)
		}
		return Output{Rounds: ar.Rounds, Anytime: ar}, res, nil
	}
	return nil
}

// compileNetsize builds the KindNetworkSize engine: the Section 5.1
// pipeline with the snapshot publisher attached to its progress hook.
func (r *Run) compileNetsize() error {
	s := r.spec
	cfg := netsize.Config{
		Walkers:    s.Walkers,
		Steps:      s.Rounds,
		BurnIn:     s.BurnIn,
		Delta:      s.Delta,
		Seed:       s.Seed,
		SeedVertex: s.SeedVertex,
		Stationary: s.Stationary,
	}
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		every := s.snapshotEvery()
		var last, lastTotal int
		cfg.Progress = func(done, total int) {
			last, lastTotal = done, total
			if done%every != 0 && done != total {
				return
			}
			r.publish(Snapshot{
				State:     StateRunning,
				Round:     done,
				MaxRounds: total,
				Progress:  float64(done) / float64(total),
				NumAgents: s.Walkers,
			})
		}
		nr, err := netsize.EstimateContext(ctx, s.Graph, cfg)
		if err != nil {
			if lastTotal > 0 {
				// Cancelled between strides: record the true progress.
				r.publish(Snapshot{
					State:     StateRunning,
					Round:     last,
					MaxRounds: lastTotal,
					Progress:  float64(last) / float64(lastTotal),
					NumAgents: s.Walkers,
				})
			}
			return Output{}, nil, err
		}
		res := r.baseResult("Section 5.1 network-size estimation")
		res.SetMetric("size", nr.Size)
		res.SetMetric("collision_rate_c", nr.C)
		res.SetMetric("inv_avg_degree", nr.InvAvgDegree)
		res.SetMetric("queries", float64(nr.Queries))
		res.SetMetric("walkers", float64(s.Walkers))
		res.SetMetric("steps", float64(s.Rounds))
		return Output{Rounds: s.Rounds, NetworkSize: nr}, res, nil
	}
	return nil
}

// addEstimateSeries appends the per-agent estimate table shared by
// the density-family results.
func (r *Run) addEstimateSeries(res *results.Result, ests []float64) {
	series := res.AddSeries("estimates", results.Cols("agent", "estimate")...)
	for i, e := range ests {
		series.AddRow(i, e)
	}
}

// boolMetric encodes a predicate as a 0/1 metric.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
