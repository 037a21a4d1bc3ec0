package antdensity_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"antdensity"
	"antdensity/internal/topology"
)

// quickSpec is a small run that completes in well under a second.
func quickSpec(seed uint64) *antdensity.Spec {
	return antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(21),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(200),
	)
}

// longSpec is a run that only terminates by cancellation.
func longSpec(seed uint64) *antdensity.Spec {
	return antdensity.DensitySpec(
		antdensity.WithGraph(topology.MustTorus(2, 20)),
		antdensity.WithAgents(21),
		antdensity.WithSeed(seed),
		antdensity.WithRounds(1<<30),
	)
}

func TestManagerRunsToCompletion(t *testing.T) {
	m := antdensity.NewManager(2)
	defer m.Close()
	var runs []*antdensity.ManagedRun
	for i := 0; i < 5; i++ {
		mr, err := m.Submit(quickSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, mr)
	}
	if got := len(m.Runs()); got != 5 {
		t.Fatalf("Runs() = %d entries", got)
	}
	for i, mr := range runs {
		if err := mr.Run.Wait(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		out, err := mr.Run.Output()
		if err != nil || len(out.Estimates) != 21 {
			t.Fatalf("run %d output: %v, %v", i, out, err)
		}
	}
	// IDs are assigned in submission order; Runs preserves it.
	for i, mr := range m.Runs() {
		if mr.ID != runs[i].ID {
			t.Fatalf("Runs()[%d] = %s, want %s", i, mr.ID, runs[i].ID)
		}
		if got, ok := m.Get(mr.ID); !ok || got != mr {
			t.Fatalf("Get(%s) = %v, %v", mr.ID, got, ok)
		}
	}
}

func TestManagerValidationErrorSurfacesAtSubmit(t *testing.T) {
	m := antdensity.NewManager(1)
	defer m.Close()
	bad := antdensity.DensitySpec(antdensity.WithAgents(5), antdensity.WithRounds(10))
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("Submit accepted an invalid spec")
	}
	if _, ok := m.Get("r000001"); ok {
		t.Fatal("invalid spec was registered")
	}
}

// TestManagerFIFOAdmission pins fair admission: with one worker, runs
// start strictly in submission order.
func TestManagerFIFOAdmission(t *testing.T) {
	m := antdensity.NewManager(1)
	defer m.Close()
	first, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	third, err := m.Submit(quickSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, first.Run, antdensity.StateRunning)
	// Later submissions hold in the queue while the head run occupies
	// the only slot.
	if st := second.Run.State(); st != antdensity.StateQueued {
		t.Fatalf("second run state = %v, want queued", st)
	}
	if st := third.Run.State(); st != antdensity.StateQueued {
		t.Fatalf("third run state = %v, want queued", st)
	}
	if snap := second.Run.Snapshot(); snap.State != antdensity.StateQueued {
		t.Fatalf("queued snapshot state = %v", snap.State)
	}
	// Freeing the slot admits the runs in order.
	first.Run.Cancel()
	if err := second.Run.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := third.Run.Wait(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(first.Run.Err(), context.Canceled) {
		t.Fatalf("first run err = %v", first.Run.Err())
	}
}

// TestManagerCancelQueued cancels a run that never got a slot: it
// must finish immediately without executing a single round.
func TestManagerCancelQueued(t *testing.T) {
	m := antdensity.NewManager(1)
	defer m.Close()
	head, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(queued.ID) {
		t.Fatal("Cancel(queued) = false")
	}
	if m.Cancel("r999999") {
		t.Fatal("Cancel(unknown) = true")
	}
	if err := queued.Run.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Wait() = %v", err)
	}
	if snap := queued.Run.Snapshot(); snap.Round != 0 {
		t.Fatalf("cancelled queued run executed %d rounds", snap.Round)
	}
	head.Run.Cancel()
	<-head.Run.Done()
}

// TestManagerConcurrentRunsWithSnapshots is the acceptance check:
// the manager sustains >= GOMAXPROCS simultaneously-running runs,
// each hammered by its own snapshot reader, under the race detector.
func TestManagerConcurrentRunsWithSnapshots(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	m := antdensity.NewManager(n)
	defer m.Close()
	var runs []*antdensity.ManagedRun
	for i := 0; i < n; i++ {
		mr, err := m.Submit(longSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, mr)
	}
	// All must be admitted at once (n workers, n runs) and make
	// simultaneous progress.
	deadline := time.Now().Add(30 * time.Second)
	for {
		running := 0
		for _, mr := range runs {
			snap := mr.Run.Snapshot()
			if snap.State == antdensity.StateRunning && snap.Round > 0 {
				running++
			}
		}
		if running == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d runs made simultaneous progress", running, n)
		}
		time.Sleep(time.Millisecond)
	}
	// Per-run snapshot readers race against the stepping loops.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, mr := range runs {
		wg.Add(1)
		go func(mr *antdensity.ManagedRun) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := mr.Run.Snapshot()
				for _, e := range snap.Estimates {
					_ = e
				}
			}
		}(mr)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	for _, mr := range runs {
		mr.Run.Cancel()
		if err := mr.Run.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Wait() = %v", mr.ID, err)
		}
	}
}

// TestManagerRetention checks that finished runs are evicted beyond
// the retention bound (oldest first) and that Remove frees a terminal
// run immediately.
func TestManagerRetention(t *testing.T) {
	m := antdensity.NewManager(1)
	defer m.Close()
	m.SetRetention(2)
	var runs []*antdensity.ManagedRun
	for i := 0; i < 5; i++ {
		mr, err := m.Submit(quickSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, mr)
	}
	for _, mr := range runs {
		if err := mr.Run.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Eviction runs on the worker goroutines; poll briefly.
	deadline := time.Now().Add(30 * time.Second)
	for len(m.Runs()) > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("retention did not evict: %d runs registered", len(m.Runs()))
		}
		time.Sleep(time.Millisecond)
	}
	// The newest runs survive; the oldest were evicted.
	if _, ok := m.Get(runs[0].ID); ok {
		t.Error("oldest run still registered")
	}
	if _, ok := m.Get(runs[4].ID); !ok {
		t.Error("newest run was evicted")
	}
	// Live handles keep working after eviction.
	if out, err := runs[0].Run.Output(); err != nil || len(out.Estimates) != 21 {
		t.Errorf("evicted run handle: %v, %v", err, out)
	}
	// Remove frees a terminal run immediately; unknown/active ids no-op.
	if !m.Remove(runs[4].ID) {
		t.Error("Remove(terminal) = false")
	}
	if m.Remove(runs[4].ID) {
		t.Error("Remove(removed) = true")
	}
	long, err := m.Submit(longSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, long.Run, antdensity.StateRunning)
	if m.Remove(long.ID) {
		t.Error("Remove(running) = true")
	}
	long.Run.Cancel()
	<-long.Run.Done()
}

// waitRegistered polls until the Manager registers exactly want, in
// submission order: eviction runs on the worker goroutines after each
// run's Done closes.
func waitRegistered(t *testing.T, m *antdensity.Manager, want ...*antdensity.ManagedRun) {
	t.Helper()
	ids := func(runs []*antdensity.ManagedRun) []string {
		out := make([]string, len(runs))
		for i, mr := range runs {
			out[i] = mr.ID
		}
		return out
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := ids(m.Runs())
		if slices.Equal(got, ids(want)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("registered runs = %v, want %v", got, ids(want))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManagerRetentionKeepsRunningRun pins that retention counts only
// ended runs: an early run that outlives later finished ones stays
// registered while it runs, and once it ends it is the oldest terminal
// run, so it is evicted first.
func TestManagerRetentionKeepsRunningRun(t *testing.T) {
	m := antdensity.NewManager(2)
	defer m.Close()
	m.SetRetention(2)
	long, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, long.Run, antdensity.StateRunning)
	var quick []*antdensity.ManagedRun
	for i := 0; i < 4; i++ {
		mr, err := m.Submit(quickSpec(uint64(10 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := mr.Run.Wait(); err != nil {
			t.Fatal(err)
		}
		quick = append(quick, mr)
	}
	waitRegistered(t, m, long, quick[2], quick[3])
	m.Cancel(long.ID)
	waitRegistered(t, m, quick[2], quick[3])
}

// TestManagerRetentionCountsCancelAndRemove pins the terminal count
// behind retention through the two ways a run ends or leaves without a
// worker: a run canceled while queued counts as ended, and a Removed
// run stops counting, so the bound holds exactly after more runs.
func TestManagerRetentionCountsCancelAndRemove(t *testing.T) {
	m := antdensity.NewManager(1)
	defer m.Close()
	m.SetRetention(2)
	long, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, long.Run, antdensity.StateRunning)
	queued, err := m.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	m.Cancel(queued.ID)
	if st := queued.Run.State(); st != antdensity.StateCanceled {
		t.Fatalf("queued run canceled to %v", st)
	}
	m.Cancel(long.ID)
	submitWait := func(spec *antdensity.Spec) *antdensity.ManagedRun {
		t.Helper()
		mr, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := mr.Run.Wait(); err != nil {
			t.Fatal(err)
		}
		return mr
	}
	a := submitWait(quickSpec(3))
	submitWait(quickSpec(4))
	if !m.Remove(a.ID) {
		t.Fatal("Remove(done run) = false")
	}
	c := submitWait(quickSpec(5))
	d := submitWait(quickSpec(6))
	// The one worker admits tail only after d's worker has released
	// its slot and evicted, so once tail runs the registry is final:
	// long, queued and the run after a evicted oldest first, a
	// removed.
	tail, err := m.Submit(longSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, tail.Run, antdensity.StateRunning)
	waitRegistered(t, m, c, d, tail)
	m.Cancel(tail.ID)
}

// TestManagerClose cancels everything and refuses new submissions.
func TestManagerClose(t *testing.T) {
	m := antdensity.NewManager(1)
	active, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(longSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, active.Run, antdensity.StateRunning)
	m.Close()
	if !active.Run.State().Terminal() || !queued.Run.State().Terminal() {
		t.Fatalf("states after Close: %v, %v", active.Run.State(), queued.Run.State())
	}
	if _, err := m.Submit(quickSpec(3)); err == nil {
		t.Fatal("Submit succeeded after Close")
	}
}

func waitForState(t *testing.T, r *antdensity.Run, want antdensity.RunState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for r.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("state = %v, want %v", r.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
