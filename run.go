package antdensity

// This file is the v2 API's execution layer: a Run is one compiled
// Spec executing on its own goroutine with cooperative context
// cancellation (plumbed through sim.RunContext, so a cancelled run
// returns within one round of ctx.Done() and always leaves its world
// consistent on a round boundary) and live anytime snapshots — the
// paper's whole point is that Algorithm 1's estimate improves every
// round, and Snapshot exposes exactly that mid-flight view to other
// goroutines without blocking the stepping loop. A publication is an
// atomic pointer swap plus a copy of the per-agent state the view
// derives from (collision counts, or adaptive quorum's frozen
// intervals) into a buffer the run reuses once no reader has pinned
// the publication; the first read of a publication materializes its
// estimates and bands on the reader's goroutine, so a run nobody reads
// pays for copies only. Readers never take a lock the hot path holds.

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
// and what every agent currently estimates. The run publishes the
// counts behind the per-agent fields as a copy into a reused buffer;
// the first Run.Snapshot call to read a publication materializes
// Estimates, CIHalf, Mean and YesVotes from that copy, and every later
// reader of the same publication shares the result. Snapshots are
// immutable once read — treat the slices as read-only.
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
	// Spec's Delta level (density, quorum and adaptive quorum runs;
	// +Inf before an agent's first collision), nil for other kinds.
	// The band depends on an agent only through its collision count,
	// so materializing a snapshot evaluates it once per distinct count
	// (see core.RoundBand); the values are those of core.BandHalf.
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
	numAgents int
	// The engine's state, nil once the run is terminal (release).
	world *World              // nil for netsize
	tam   *adversary.Tamperer // nil without a Spec adversary
	audit *adversary.Detector // audits tam's reports; nil when tam is
	exec  func(ctx context.Context) (Output, *results.Result, error)

	state   atomic.Int32
	snap    atomic.Pointer[publication]
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
			err = r.compileAdversary()
		}
		if err == nil {
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
	r.snap.Store(&publication{snap: Snapshot{State: StatePending, MaxRounds: s.Rounds, NumAgents: r.numAgents}})
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
	r.release()
	switch {
	case err == nil:
		r.state.Store(int32(StateDone))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.state.Store(int32(StateCanceled))
	default:
		r.state.Store(int32(StateFailed))
	}
	r.snap.Store(r.snap.Load().terminal(r.State(), err))
	r.wake()
	if r.cancelFn != nil {
		r.cancelFn() // release the context's resources
	}
	close(r.done)
}

// release drops what only the engine reads — the world, the compiled
// engine with its observers, and the adversary — once the engine has
// returned or can no longer run, so a finished run a Manager retains
// keeps its outcome and terminal publication, not its world. Called
// under r.mu.
func (r *Run) release() {
	r.world, r.exec, r.tam, r.audit = nil, nil, nil, nil
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
	r.release()
	r.state.Store(int32(StateCanceled))
	r.snap.Store(r.snap.Load().terminal(StateCanceled, r.err))
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
// blocks the run: it pins the latest publication with one CAS, so the
// run never reuses that publication's buffer, and the first read of a
// publication materializes its per-agent fields from the copy the run
// published — O(agents) on the calling goroutine, once. Later readers
// of the same publication share those immutable fields.
func (r *Run) Snapshot() Snapshot {
	p := r.snap.Load()
	for !p.pinned() {
		p = r.snap.Load() // retired: the run has published a newer round
	}
	snap := p.snap
	if !snap.State.Terminal() {
		// Pending/queued/running transitions happen without a fresh
		// measurement; surface the current phase. A terminal phase
		// means the run is finishing: it stores that state and then,
		// still under r.mu, the terminal publication that carries its
		// error, so wait out that critical section and read the
		// publication.
		st := r.State()
		if st.Terminal() {
			r.mu.Lock()
			r.mu.Unlock()
			return r.Snapshot()
		}
		snap.State = st
	}
	if p.view != nil {
		v := p.view.materialize()
		snap.Estimates, snap.CIHalf, snap.Mean, snap.YesVotes = v.Estimates, v.CIHalf, v.Mean, v.YesVotes
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

// publication is one published round: the O(1) Snapshot fields, set
// before the run stores it, and the per-agent view, built from the
// run's captured state on first read.
type publication struct {
	snap Snapshot // Estimates, CIHalf, Mean and YesVotes come from view
	// pin moves at most once: fresh → read when a reader pins the
	// publication, or fresh → retired when the run has published past
	// it unread. Only a retired publication's buffer is reused.
	pin  atomic.Int32
	view *agentView // nil when there is no per-agent view
}

const (
	pubFresh int32 = iota
	pubRead
	pubRetired
)

// pinned pins p for reading and reports whether it may be read: false
// once the run has retired it.
func (p *publication) pinned() bool {
	return p.pin.CompareAndSwap(pubFresh, pubRead) || p.pin.Load() == pubRead
}

// terminal returns the run's final publication: p's fields and view
// under the terminal state and error. p is the last publication of an
// engine that has returned, so nothing reuses the view's buffer.
func (p *publication) terminal(state RunState, err error) *publication {
	f := &publication{snap: p.snap, view: p.view}
	f.snap.State = state
	if err != nil {
		f.snap.Err = err.Error()
	}
	return f
}

// agentView is a publication's per-agent view: the state captured at
// its round, turned into Snapshot fields once, by the first reader.
type agentView struct {
	once  sync.Once
	round int
	cap   *capture // dropped once materialized
	build func(c *capture, round int, snap *Snapshot)
	out   Snapshot // only the per-agent fields build sets
}

// materialize builds the view on first call and returns it.
func (v *agentView) materialize() *Snapshot {
	v.once.Do(func() {
		v.build(v.cap, v.round, &v.out)
		v.cap = nil
	})
	return &v.out
}

// capture is a copy of the per-agent state one publication's view
// derives from. Each kind fills the fields it reads; the slices keep
// their capacity when the run reuses the capture.
type capture struct {
	counts, tagged []int64   // collision totals; property runs' tagged totals
	ests, half     []float64 // adaptive quorum's frozen intervals
	decision       []int     // adaptive quorum's decisions
}

// snapshotter is a kind's side of publication. capture copies the live
// per-agent state into c on the run goroutine and returns the number
// of decided agents; build sets a snapshot's Estimates, CIHalf, Mean
// and YesVotes from a capture, on the first reader's goroutine.
type snapshotter struct {
	capture func(c *capture) (decided int)
	build   func(c *capture, round int, snap *Snapshot)
}

// publisher publishes one engine call's snapshots from the run
// goroutine. It lives only as long as that call, so the capture it
// keeps for reuse dies with it, and a finished run a Manager retains
// holds only its terminal publication.
type publisher struct {
	r     *Run
	views snapshotter // zero for runs without a per-agent view
	last  *publication
	cap   *capture // last's capture
	spare *capture // a retired publication's capture, ready for reuse
}

// publish stores the view after `round` completed rounds, retires the
// previous publication if no reader pinned it (recycling its capture),
// and wakes every Updated watcher.
func (p *publisher) publish(round, maxRounds int) {
	pub := &publication{snap: Snapshot{
		State:     StateRunning,
		Round:     round,
		MaxRounds: maxRounds,
		Progress:  float64(round) / float64(maxRounds),
		NumAgents: p.r.numAgents,
	}}
	var c *capture
	if p.views.capture != nil && round > 0 {
		c, p.spare = p.spare, nil
		if c == nil {
			c = new(capture)
		}
		pub.snap.Decided = p.views.capture(c)
		pub.view = &agentView{round: round, cap: c, build: p.views.build}
	}
	p.r.snap.Store(pub)
	if p.cap != nil && p.last.pin.CompareAndSwap(pubFresh, pubRetired) {
		p.spare = p.cap
	}
	p.last, p.cap = pub, c
	p.r.wake()
}

// observe runs every pipeline engine's rounds: up to maxRounds of
// them, each observed by est, then the adversary audit (which reads
// the Tamperer's memoized per-round reports, so it must ride after the
// estimator), then a publisher of a snapshot every SnapshotEvery
// rounds and on round maxRounds. An early stop or a cancellation can
// land between publication strides; then it republishes the exact
// final view once more. It returns the rounds executed.
func (r *Run) observe(ctx context.Context, maxRounds int, est sim.Observer, views snapshotter) (int, error) {
	every := r.spec.snapshotEvery()
	pub := publisher{r: r, views: views}
	var last, published int
	pipeline := []sim.Observer{est}
	if r.audit != nil {
		pipeline = append(pipeline, r.audit)
	}
	pipeline = append(pipeline, sim.ObserverFunc(func(rd *sim.Round) sim.Signal {
		last = rd.Index()
		if last%every == 0 || last == maxRounds {
			pub.publish(last, maxRounds)
			published = last
		}
		return sim.Continue
	}))
	rounds, err := sim.RunContext(ctx, r.world, maxRounds, pipeline...)
	if last != published {
		pub.publish(last, maxRounds)
	}
	return rounds, err
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

// countEstimates fills snap with the running density estimates
// c/round of accumulated collision counts, their anytime bands from
// the round-band kernel, and their mean, summed in agent order.
func countEstimates(band *core.RoundBand, counts []int64, round int, snap *Snapshot) {
	snap.Estimates = make([]float64, len(counts))
	snap.CIHalf = make([]float64, len(counts))
	sum := band.Fill(counts, round, snap.Estimates, snap.CIHalf)
	if len(counts) > 0 {
		snap.Mean = sum / float64(len(counts))
	}
}

// countSnapshots publishes density and quorum views: a publication
// copies every agent's collision count, and its first reader evaluates
// c/round and the band through a round-band kernel of its own at the
// Spec's band level, the mean in agent order, and with a positive
// (quorum) threshold the yes votes.
func (r *Run) countSnapshots(obs *core.CollisionObserver, threshold float64) snapshotter {
	return snapshotter{
		capture: func(c *capture) int {
			c.counts = append(c.counts[:0], obs.Counts()...)
			return 0
		},
		build: func(c *capture, round int, snap *Snapshot) {
			band := core.NewRoundBand(r.numAgents, 0, r.spec.delta(), r.spec.c1())
			countEstimates(band, c.counts, round, snap)
			if threshold > 0 {
				for _, e := range snap.Estimates {
					if e >= threshold {
						snap.YesVotes++
					}
				}
			}
		},
	}
}

// baseResult starts a structured result carrying the run's identity.
func (r *Run) baseResult(title string) *results.Result {
	return &results.Result{ID: r.spec.Kind.String(), Title: title, Seed: r.spec.Seed}
}

// compileAdversary builds the Spec's Tamperer — attached to the run's
// world, so stall adversaries physically freeze — and a Detector
// auditing its reports. Both stay nil when the Spec has no adversary.
func (r *Run) compileAdversary() error {
	tam, err := r.spec.tamperer(r.numAgents)
	if tam == nil || err != nil {
		return err
	}
	tam.Attach(r.world)
	r.tam, r.audit = tam, adversary.NewDetector(r.numAgents, tam, adversary.DetectorConfig{})
	return nil
}

// estimatorOptions maps the Spec's sensing fields to core options and,
// with an adversary, installs its report filters on both count
// streams (CollisionObserver reads only the total-stream one).
func (r *Run) estimatorOptions() []core.Option {
	var opts []core.Option
	if r.spec.TaggedOnly {
		opts = append(opts, core.WithTaggedOnly())
	}
	if n := r.spec.Noise; n != nil {
		opts = append(opts, core.WithNoise(n.DetectProb, n.SpuriousProb, n.Seed))
	}
	if r.tam != nil {
		opts = append(opts,
			core.WithReportFilter(r.tam.Filter()),
			core.WithTaggedReportFilter(r.tam.TaggedFilter()))
	}
	return opts
}

// addAdversaryMetrics records the adversarial population, every
// stats.Aggregator of the per-agent estimates (robust locations beside
// the mean — the comparison the adversary experiments plot), and the
// detection rates scored against the ground-truth mask. It records
// nothing for an honest run.
func (r *Run) addAdversaryMetrics(res *results.Result, ests []float64) {
	if r.tam == nil {
		return
	}
	res.SetMetric("adversaries", float64(r.tam.NumAdversarial()))
	res.SetMetric("adversary_fraction", r.tam.Config().Fraction)
	for _, agg := range stats.Aggregators() {
		res.SetMetric("estimate_"+agg.String(), agg.Aggregate(ests))
	}
	tpr, fpr, flagged := r.audit.Rates(r.tam.Mask())
	res.SetMetric("detect_tpr", tpr)
	res.SetMetric("detect_fpr", fpr)
	res.SetMetric("detect_flagged", float64(flagged))
}

// compileDensity builds the KindDensity engine: Algorithm 1 through
// the observation pipeline, with a snapshot publisher riding along.
func (r *Run) compileDensity() error {
	obs, err := core.NewCollisionObserver(r.numAgents, r.estimatorOptions()...)
	if err != nil {
		return err
	}
	t := r.spec.Rounds
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		if _, err := r.observe(ctx, t, obs, r.countSnapshots(obs, 0)); err != nil {
			return Output{}, nil, err
		}
		ests := obs.Estimates() // c/t: nothing stops a collision run early
		res := r.baseResult("Algorithm 1 encounter-rate density estimation")
		r.addEstimateSeries(res, ests)
		res.SetMetric("rounds", float64(t))
		res.SetMetric("num_agents", float64(r.numAgents))
		res.SetMetric("true_density", r.world.Density())
		res.SetMetric("mean_estimate", meanFinite(ests))
		r.addAdversaryMetrics(res, ests)
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
		views := snapshotter{
			capture: func(c *capture) int {
				c.counts = append(c.counts[:0], obs.Counts()...)
				return 0
			},
			build: func(c *capture, round int, snap *Snapshot) {
				snap.Estimates = core.IndependentEstimates(c.counts, round)
				snap.Mean = meanFinite(snap.Estimates)
			},
		}
		if _, err := r.observe(ctx, t, obs, views); err != nil {
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
	obs, err := core.NewPropertyObserver(r.numAgents, r.estimatorOptions()...)
	if err != nil {
		return err
	}
	t := r.spec.Rounds
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		views := snapshotter{
			capture: func(c *capture) int {
				total, tagged := obs.Counts()
				c.counts = append(c.counts[:0], total...)
				c.tagged = append(c.tagged[:0], tagged...)
				return 0
			},
			build: func(c *capture, round int, snap *Snapshot) {
				snap.Estimates = core.PropertyFrequencies(c.counts, c.tagged, round)
				snap.Mean = meanFinite(snap.Estimates)
			},
		}
		if _, err := r.observe(ctx, t, obs, views); err != nil {
			return Output{}, nil, err
		}
		pr := obs.Result()
		res := r.baseResult("Section 5.2 property-frequency estimation")
		series := res.AddSeries("agents", results.Cols("agent", "density", "property_density", "frequency")...)
		for i := range pr.Density {
			series.AddCells(results.Int(int64(i)), results.Float(pr.Density[i]), results.Float(pr.PropertyDensity[i]), results.Float(pr.Frequency[i]))
		}
		res.SetMetric("rounds", float64(t))
		res.SetMetric("num_agents", float64(r.numAgents))
		res.SetMetric("mean_frequency", meanFinite(pr.Frequency))
		r.addAdversaryMetrics(res, pr.Frequency)
		return Output{Rounds: t, Property: pr}, res, nil
	}
	return nil
}

// compileQuorum builds the KindQuorum engine: Algorithm 1 counting
// plus a threshold vote at the horizon.
func (r *Run) compileQuorum() error {
	obs, err := core.NewCollisionObserver(r.numAgents, r.estimatorOptions()...)
	if err != nil {
		return err
	}
	t, threshold := r.spec.Rounds, r.spec.Threshold
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		if _, err := r.observe(ctx, t, obs, r.countSnapshots(obs, threshold)); err != nil {
			return Output{}, nil, err
		}
		ests := obs.Estimates() // c/t: nothing stops a collision run early
		votes := quorum.Votes(ests, threshold)
		res := r.baseResult("Section 6.2 fixed-horizon quorum vote")
		series := res.AddSeries("votes", results.Cols("agent", "estimate", "vote")...)
		yes := 0
		for i, v := range votes {
			series.AddCells(results.Int(int64(i)), results.Float(ests[i]), results.Bool(v))
			if v {
				yes++
			}
		}
		res.SetMetric("rounds", float64(t))
		res.SetMetric("threshold", threshold)
		res.SetMetric("yes_votes", float64(yes))
		res.SetMetric("vote_fraction", quorum.VoteFraction(votes))
		res.SetMetric("majority", boolMetric(quorum.MajorityVote(votes)))
		if r.tam != nil {
			r.addAdversaryMetrics(res, ests)
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
	if r.tam != nil {
		det.SetReportFilter(r.tam.Filter())
	}
	maxRounds := r.spec.Rounds
	r.exec = func(ctx context.Context) (Output, *results.Result, error) {
		// A pinned capture is never reused, so the view's slices can be
		// the captured intervals themselves.
		views := snapshotter{
			capture: func(c *capture) int {
				ests, half, decision := det.State()
				c.ests = append(c.ests[:0], ests...)
				c.half = append(c.half[:0], half...)
				c.decision = append(c.decision[:0], decision...)
				return det.NumDecided()
			},
			build: func(c *capture, round int, snap *Snapshot) {
				snap.Estimates, snap.CIHalf = c.ests, c.half
				for _, d := range c.decision {
					if d == +1 {
						snap.YesVotes++
					}
				}
				snap.Mean = meanFinite(snap.Estimates)
			},
		}
		// The anytime detector observes first: it is the filter's first
		// caller each round.
		rounds, err := r.observe(ctx, maxRounds, det, views)
		if err != nil {
			return Output{}, nil, err
		}
		ar := det.Result(rounds)
		res := r.baseResult("Section 6.2 anytime quorum decision")
		series := res.AddSeries("decisions", results.Cols("agent", "decision", "stop_round")...)
		yes, undecided := 0, 0
		votes := make([]bool, len(ar.Decision))
		for i, d := range ar.Decision {
			series.AddCells(results.Int(int64(i)), results.Int(int64(d)), results.Int(int64(ar.StopRound[i])))
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
		if r.tam != nil {
			ests, _ := det.Intervals()
			r.addAdversaryMetrics(res, ests)
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
		pub := publisher{r: r} // netsize publishes progress only
		var last, lastTotal int
		cfg.Progress = func(done, total int) {
			last, lastTotal = done, total
			if done%every == 0 || done == total {
				pub.publish(done, total)
			}
		}
		nr, err := netsize.EstimateContext(ctx, s.Graph, cfg)
		if err != nil {
			if lastTotal > 0 {
				// Cancelled between strides: record the true progress.
				pub.publish(last, lastTotal)
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
		series.AddCells(results.Int(int64(i)), results.Float(e))
	}
}

// boolMetric encodes a predicate as a 0/1 metric.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
