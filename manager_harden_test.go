package antdensity_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"antdensity"
	"antdensity/internal/topology"
)

func TestManagerQueueLimit(t *testing.T) {
	m := antdensity.NewManager(1)
	defer m.Close()
	m.SetQueueLimit(2)

	// One running + two queued fills the bound.
	head, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(longSpec(uint64(2 + i))); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if d := m.QueueDepth(); d != 2 {
		t.Fatalf("QueueDepth() = %d, want 2", d)
	}
	if _, err := m.Submit(quickSpec(9)); !errors.Is(err, antdensity.ErrQueueFull) {
		t.Fatalf("over-limit Submit err = %v, want ErrQueueFull", err)
	}

	// Canceling the head drains a slot; submission works again.
	head.Run.Cancel()
	<-head.Run.Done()
	deadline := time.Now().Add(10 * time.Second)
	for m.QueueDepth() >= 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after head cancel")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(longSpec(10)); err != nil {
		t.Fatalf("post-drain Submit: %v", err)
	}
}

// TestManagerCancelCompactsQueue is the satellite bugfix check: a
// cancel-heavy burst must not leave terminal runs pinned in the
// admission queue.
func TestManagerCancelCompactsQueue(t *testing.T) {
	m := antdensity.NewManager(1)
	defer m.Close()
	head, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mr, err := m.Submit(longSpec(uint64(2 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if !m.Cancel(mr.ID) {
			t.Fatalf("Cancel(%s) = false", mr.ID)
		}
		if err := mr.Run.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled queued run Wait() = %v", err)
		}
	}
	// The head is still running, so nothing was admitted: every
	// canceled run must have been compacted out, not parked.
	if d := m.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth() after cancel burst = %d, want 0", d)
	}
	head.Run.Cancel()
	<-head.Run.Done()
}

func TestManagerSubmitDeduped(t *testing.T) {
	m := antdensity.NewManager(2)
	defer m.Close()

	a, cached, err := m.SubmitDeduped(quickSpec(7))
	if err != nil || cached {
		t.Fatalf("first SubmitDeduped = cached %v, err %v", cached, err)
	}
	if err := a.Run.Wait(); err != nil {
		t.Fatal(err)
	}

	// Identical spec: served from cache, same managed run.
	b, cached, err := m.SubmitDeduped(quickSpec(7))
	if err != nil || !cached || b != a {
		t.Fatalf("identical SubmitDeduped = %v (cached %v, err %v), want cache hit of %v", b, cached, err, a)
	}

	// Different seed: a fresh run.
	c, cached, err := m.SubmitDeduped(quickSpec(8))
	if err != nil || cached || c == a {
		t.Fatalf("different-seed SubmitDeduped = cached %v, err %v", cached, err)
	}
	if err := c.Run.Wait(); err != nil {
		t.Fatal(err)
	}
	if hits, misses := m.CacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("CacheStats() = %d hits, %d misses; want 1, 2", hits, misses)
	}

	// A canceled run never serves cache hits.
	d, _, err := m.SubmitDeduped(longSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	m.Cancel(d.ID)
	<-d.Run.Done()
	e, cached, err := m.SubmitDeduped(longSpec(77))
	if err != nil || cached || e == d {
		t.Fatalf("post-cancel SubmitDeduped = cached %v, err %v", cached, err)
	}
	m.Cancel(e.ID)

	// Removing a run invalidates its cache entry.
	if !m.Remove(a.ID) {
		t.Fatal("Remove(done run) = false")
	}
	f, cached, err := m.SubmitDeduped(quickSpec(7))
	if err != nil || cached || f == a {
		t.Fatalf("post-Remove SubmitDeduped = cached %v, err %v", cached, err)
	}
	f.Run.Wait()
}

// TestManagerSubmitDedupedConcurrent releases 32 identical
// SubmitDeduped calls at once: exactly one may register a run, and
// every other call must be served that run from the cache, even when
// it missed the cache before compiling its own Spec.
func TestManagerSubmitDedupedConcurrent(t *testing.T) {
	m := antdensity.NewManager(2)
	defer m.Close()
	const callers = 32
	spec := func() *antdensity.Spec {
		// A world big enough that compiling it leaves a wide window
		// between the first cache check and registration.
		return antdensity.DensitySpec(
			antdensity.WithGraph(topology.MustTorus(2, 100)),
			antdensity.WithAgents(501),
			antdensity.WithSeed(11),
			antdensity.WithRounds(1<<30),
		)
	}
	start := make(chan struct{})
	ids := make([]string, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := spec()
			<-start
			mr, _, err := m.SubmitDeduped(s)
			if err == nil {
				ids[i] = mr.ID
			}
			errs[i] = err
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if ids[i] != ids[0] {
			t.Fatalf("callers got runs %s and %s for one Spec", ids[0], ids[i])
		}
	}
	if hits, misses := m.CacheStats(); hits != callers-1 || misses != 1 {
		t.Fatalf("CacheStats() = %d hits, %d misses; want %d, 1", hits, misses, callers-1)
	}
	m.Cancel(ids[0])
}

func TestManagerSubmitWithIDAndSeqBase(t *testing.T) {
	m := antdensity.NewManager(2)
	defer m.Close()
	mr, err := m.SubmitWithID("r000005", quickSpec(1))
	if err != nil || mr.ID != "r000005" {
		t.Fatalf("SubmitWithID = %v, %v", mr, err)
	}
	if _, err := m.SubmitWithID("r000005", quickSpec(2)); err == nil {
		t.Fatal("duplicate SubmitWithID succeeded")
	}
	if _, err := m.SubmitWithID("", quickSpec(2)); err == nil {
		t.Fatal("empty-id SubmitWithID succeeded")
	}
	m.SetSeqBase(7)
	fresh, err := m.Submit(quickSpec(3))
	if err != nil || fresh.ID != "r000008" {
		t.Fatalf("post-SetSeqBase Submit id = %q (err %v), want r000008", fresh.ID, err)
	}
	mr.Run.Wait()
	fresh.Run.Wait()
}

// TestRunUpdated checks the closed-channel broadcast the SSE layer
// streams from: every wait returns, snapshots only move forward, and
// the terminal state wakes watchers.
func TestRunUpdated(t *testing.T) {
	s := quickSpec(5)
	s.SnapshotEvery = 10
	run, err := s.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	lastRound := -1
	for {
		ch := run.Updated()
		snap := run.Snapshot()
		if snap.Round < lastRound {
			t.Fatalf("snapshot went backwards: %d after %d", snap.Round, lastRound)
		}
		lastRound = snap.Round
		if snap.State.Terminal() {
			break
		}
		select {
		case <-ch:
		case <-run.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("Updated never fired")
		}
	}
	if lastRound != 200 {
		t.Fatalf("terminal snapshot round = %d, want 200", lastRound)
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
}
