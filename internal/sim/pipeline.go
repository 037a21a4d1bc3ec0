package sim

import (
	"context"
	"fmt"
)

// This file is the streaming observation pipeline: one Run loop that
// advances a World round by round and hands every observer the whole
// round's collision counts through shared, lazily computed,
// zero-allocation bulk snapshots. All estimation layers (core, quorum,
// netsize) drive their worlds through it instead of issuing n scalar
// Count calls per round.

// Signal is an observer's verdict after seeing a round.
type Signal int

const (
	// Continue asks for further rounds.
	Continue Signal = iota
	// Stop marks the observer as done: it is not invoked again during
	// this run, and the run terminates early once every observer has
	// stopped.
	Stop
)

// Observer consumes one completed round of a Run. Observers read the
// round's counts through the Round snapshot accessors and accumulate
// whatever statistic they estimate.
//
// Determinism invariant: the pipeline never lets observers influence
// stepping or snapshots, so the observed values are independent of how
// many observers run and in which order they are listed. The per-agent
// active mask is shared state; to keep results order-independent,
// each agent must be deactivated (and have its Active bit read) by at
// most one observer — every observer in this repository follows that
// ownership rule.
type Observer interface {
	// Observe is called once per round, after every agent has stepped,
	// with the round's snapshot view. Returning Stop retires the
	// observer for the rest of the run.
	Observe(r *Round) Signal
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(r *Round) Signal

// Observe calls f.
func (f ObserverFunc) Observe(r *Round) Signal { return f(r) }

// Round is the snapshot view of one completed round, shared by all
// observers of a Run. Count slices are computed at most once per round
// (on first request, into buffers reused across rounds) and handed to
// every observer that asks; observers must not mutate or retain them
// past the Observe call.
type Round struct {
	w     *World
	index int

	counts     []int
	countsOK   bool
	tagged     []int
	taggedOK   bool
	group      map[int][]int
	groupRound map[int]int
	active     []bool
	numActive  int
}

// World returns the world being observed.
func (r *Round) World() *World { return r.w }

// Index returns the number of rounds completed in this run (1 for the
// first observed round).
func (r *Round) Index() int { return r.index }

// NumAgents returns the number of agents in the world.
func (r *Round) NumAgents() int { return r.w.NumAgents() }

// Counts returns every agent's count(position) for this round — the
// bulk equivalent of calling World.Count for each agent. The slice is
// shared between observers and reused next round.
func (r *Round) Counts() []int {
	if !r.countsOK {
		if r.counts == nil {
			r.counts = make([]int, r.w.NumAgents())
		}
		r.w.CountsAllInto(r.counts)
		r.countsOK = true
	}
	return r.counts
}

// TaggedCounts returns every agent's CountTagged for this round; see
// Counts for the sharing contract.
func (r *Round) TaggedCounts() []int {
	if !r.taggedOK {
		if r.tagged == nil {
			r.tagged = make([]int, r.w.NumAgents())
		}
		r.w.CountsTaggedAllInto(r.tagged)
		r.taggedOK = true
	}
	return r.tagged
}

// GroupCounts returns every agent's CountInGroup for the given
// positive group this round; see Counts for the sharing contract.
// Each group gets its own buffer (allocated on its first request,
// reused for the run), so reading several groups in one round never
// invalidates an earlier group's slice.
func (r *Round) GroupCounts(group int) []int {
	if r.group == nil {
		r.group = make(map[int][]int)
		r.groupRound = make(map[int]int)
	}
	buf, seen := r.group[group]
	if !seen {
		buf = make([]int, r.w.NumAgents())
		r.group[group] = buf
	}
	if !seen || r.groupRound[group] != r.index {
		r.w.CountsInGroupInto(group, buf)
		r.groupRound[group] = r.index
	}
	return buf
}

// Active reports whether agent i is still active in this run. All
// agents start active; the mask only ever shrinks.
func (r *Round) Active(i int) bool { return r.active[i] }

// Deactivate retires agent i for the rest of the run, recording its
// per-agent stopping time. The world still steps the agent (the
// paper's model has no way to freeze an individual walker), but
// observers implementing per-agent stopping skip it, and the run
// terminates early once every agent is inactive.
func (r *Round) Deactivate(i int) {
	if r.active[i] {
		r.active[i] = false
		r.numActive--
	}
}

// NumActive returns the number of still-active agents.
func (r *Round) NumActive() int { return r.numActive }

// beginRound invalidates the per-round snapshot caches. Group buffers
// invalidate by round index (groupRound), so nothing is cleared here.
func (r *Round) beginRound() {
	r.index++
	r.countsOK = false
	r.taggedOK = false
}

// Runner drives a World one observed round at a time — the resumable
// form of Run, used directly by callers that interleave rounds with
// other work (and by the allocation regression tests, which pin a
// steady-state Step at zero allocations).
type Runner struct {
	w       *World
	obs     []Observer
	done    []bool
	live    int // observers not yet done
	workers int // stepping workers per round; >1 routes through StepParallel
	r       Round
}

// NewRunner returns a Runner observing w. The observer list may be
// empty, in which case Step just advances the world. The stepping
// worker count is the world's own recommendation (autoStepWorkers: one
// worker per shard up to GOMAXPROCS for sharded worlds, serial
// otherwise), so every pipeline-driven caller — Run, the estimators,
// serve — parallelizes sharded worlds without a new parameter. Worker
// count never affects results, by the determinism invariant.
func NewRunner(w *World, obs ...Observer) *Runner {
	active := make([]bool, w.NumAgents())
	for i := range active {
		active[i] = true
	}
	return &Runner{
		w:       w,
		obs:     obs,
		done:    make([]bool, len(obs)),
		live:    len(obs),
		workers: w.autoStepWorkers(),
		r:       Round{w: w, active: active, numActive: w.NumAgents()},
	}
}

// Rounds returns the number of observed rounds completed so far.
func (rn *Runner) Rounds() int { return rn.r.index }

// Stopped reports whether the run has terminated early: every observer
// returned Stop, or every agent was deactivated.
func (rn *Runner) Stopped() bool {
	return (len(rn.obs) > 0 && rn.live == 0) || rn.r.numActive == 0
}

// Step advances the world one round and hands the snapshot to every
// observer that has not stopped. It reports whether the run should
// continue; once it returns false, further calls are no-ops.
//
//antlint:noalloc
func (rn *Runner) Step() bool {
	if rn.Stopped() {
		return false
	}
	if rn.workers > 1 {
		rn.w.StepParallel(rn.workers)
	} else {
		rn.w.Step()
	}
	rn.r.beginRound()
	for k, o := range rn.obs {
		if rn.done[k] {
			continue
		}
		if o.Observe(&rn.r) == Stop {
			rn.done[k] = true
			rn.live--
		}
	}
	return !rn.Stopped()
}

// Run advances w by up to rounds observed rounds, invoking every
// observer once per round, and returns the number of rounds executed.
// The run ends early when every observer has returned Stop or every
// agent has been deactivated (see Round.Deactivate). rounds must be
// >= 0; Run panics otherwise.
//
// Per-round snapshots are computed once and shared, and all buffers
// are reused across rounds, so a Run's steady state allocates nothing
// beyond what the observers themselves allocate.
func Run(w *World, rounds int, obs ...Observer) int {
	n, _ := RunContext(context.Background(), w, rounds, obs...) // never cancelled
	return n
}

// RunContext is Run with cooperative cancellation: it checks ctx
// between rounds (never mid-round, so the world is always left in a
// consistent state on a round boundary) and stops as soon as the
// context is cancelled or its deadline passes, returning the number of
// completed rounds together with ctx.Err(). A cancelled run therefore
// returns within one round of ctx.Done(). The world remains usable —
// further Run/RunContext calls resume from where the cancelled run
// stopped.
//
// The per-round check is a plain ctx.Err() call (no channel select),
// so an un-cancellable context adds only nanoseconds per round and no
// allocations to the observer loop.
func RunContext(ctx context.Context, w *World, rounds int, obs ...Observer) (int, error) {
	if rounds < 0 {
		panic(fmt.Sprintf("sim: rounds must be >= 0, got %d", rounds))
	}
	rn := NewRunner(w, obs...)
	for rn.r.index < rounds {
		if err := ctx.Err(); err != nil {
			return rn.r.index, err
		}
		if !rn.Step() {
			break
		}
	}
	return rn.r.index, nil
}
