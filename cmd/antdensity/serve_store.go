package main

// Durable runs for `antdensity serve`: every accepted submission is
// appended to a JSONL journal (internal/journal) together with the
// wire spec, and every terminal state is appended with the final
// snapshot and — for completed runs — the full structured result and
// the fingerprint of the Spec it ran. On startup the journal is
// replayed:
//
//   - runs with a terminal record become archivedRuns, served from
//     the journal without recomputation (GET snapshot/result/events
//     all keep working after a restart); a completed one also answers
//     identical submissions under its journaled fingerprint;
//   - runs without one were interrupted by the previous process's
//     death; they are re-submitted under their original ids, so a
//     client holding an id from before the restart sees its run
//     complete rather than vanish.
//
// Drain-mode cancellations (SIGINT/SIGTERM) are deliberately NOT
// journaled as canceled: they stay interrupted, which is what makes
// kill-and-restart resume them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"

	"antdensity"
	"antdensity/internal/journal"
	"antdensity/internal/results"
)

// archivedRun is a terminal run replayed from the journal: no live
// Run object, just its final wire views.
type archivedRun struct {
	id     string
	state  string          // done | canceled | failed
	result json.RawMessage // structured result (done only)
	snap   runSnapshot
	fp     string // journaled Spec fingerprint (done runs; "" when unknown)
}

// runStore owns the journal and the archive of replayed runs.
type runStore struct {
	jr *journal.Journal

	mu      sync.Mutex
	archive map[string]*archivedRun
	order   []string          // replay order, for listing
	byFP    map[string]string // fingerprint -> archived done run id
}

// openRunStore opens the journal under dir, replays it, archives
// finished runs, and re-submits interrupted ones through s.m. It
// installs the store as s.store before it re-submits anything: a
// resumed run's terminal watcher journals through s.store, and the run
// can finish before openRunStore returns.
func openRunStore(dir string, s *server) error {
	jr, recs, skipped, err := journal.Open(dir)
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "antdensity: journal: skipped %d unparseable line(s)\n", skipped)
	}
	entries, maxSeq, corrupt := journal.Reduce(recs)
	if corrupt > 0 {
		fmt.Fprintf(os.Stderr, "antdensity: journal: skipped %d corrupt record(s)\n", corrupt)
	}
	s.m.SetSeqBase(maxSeq)
	st := &runStore{
		jr:      jr,
		archive: make(map[string]*archivedRun),
		byFP:    make(map[string]string),
	}
	s.store = st
	resumed := 0
	for _, e := range entries {
		var req runRequest
		specErr := json.Unmarshal(e.Submit.Spec, &req)
		if e.Interrupted() {
			if err := st.resume(s, e, req, specErr); err != nil {
				st.add(&archivedRun{
					id:    e.Submit.ID,
					state: "failed",
					snap: runSnapshot{
						ID: e.Submit.ID, Kind: req.Kind, State: "failed",
						Error: fmt.Sprintf("journal replay: %v", err),
					},
				})
				fmt.Fprintf(os.Stderr, "antdensity: journal: cannot resume %s: %v\n", e.Submit.ID, err)
				continue
			}
			resumed++
			continue
		}
		st.add(st.archivedFromEntry(e, req))
	}
	if len(entries) > 0 {
		fmt.Fprintf(os.Stderr, "antdensity: journal: replayed %d run(s), resumed %d interrupted\n",
			len(entries), resumed)
	}
	return nil
}

// resume re-submits an interrupted run under its original id.
func (st *runStore) resume(s *server, e *journal.Entry, req runRequest, specErr error) error {
	if specErr != nil {
		return fmt.Errorf("unreadable spec: %w", specErr)
	}
	spec, err := specFromRequest(req)
	if err != nil {
		return err
	}
	mr, err := s.m.SubmitWithID(e.Submit.ID, spec)
	if err != nil {
		return err
	}
	s.watch(mr)
	return nil
}

// archivedFromEntry rebuilds an archivedRun from a journaled terminal
// record.
func (st *runStore) archivedFromEntry(e *journal.Entry, req runRequest) *archivedRun {
	term := e.Terminal
	ar := &archivedRun{id: e.Submit.ID, state: term.State, result: term.Result}
	// Journal marshaling compacts the embedded result; restore the
	// results.WriteJSON rendering so archived serving is byte-identical
	// to the live path.
	if len(term.Result) > 0 {
		var buf bytes.Buffer
		if json.Indent(&buf, term.Result, "", "  ") == nil {
			buf.WriteByte('\n')
			ar.result = buf.Bytes()
		}
	}
	if len(term.Snap) == 0 || json.Unmarshal(term.Snap, &ar.snap) != nil {
		ar.snap = runSnapshot{ID: e.Submit.ID, Kind: req.Kind, State: term.State, Error: term.Error}
	}
	// Only completed runs serve cache hits, and only under the
	// fingerprint their run journaled: re-deriving it from the request
	// would rebuild the graph, and a binary whose generators changed
	// would build a different one than the result ran on. A record
	// without one still serves by id, but answers no submission.
	if term.State == antdensity.StateDone.String() {
		ar.fp = term.Fingerprint
	}
	return ar
}

// add registers an archived run (replay goroutine only).
func (st *runStore) add(ar *archivedRun) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.archive[ar.id] = ar
	st.order = append(st.order, ar.id)
	if ar.fp != "" {
		st.byFP[ar.fp] = ar.id
	}
}

// get resolves an archived run id.
func (st *runStore) get(id string) (*archivedRun, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ar, ok := st.archive[id]
	return ar, ok
}

// lookupFP resolves a fingerprint to an archived completed run.
func (st *runStore) lookupFP(fp string) (*archivedRun, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	id, ok := st.byFP[fp]
	if !ok {
		return nil, false
	}
	return st.archive[id], true
}

// archivedSnapshots lists the archive in replay order.
func (st *runStore) archivedSnapshots() []runSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]runSnapshot, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.archive[id].snap)
	}
	return out
}

// close seals the journal.
func (st *runStore) close() {
	if err := st.jr.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "antdensity: journal: close: %v\n", err)
	}
}

// archivedByFingerprint serves the submit-path cache check against
// journaled results.
func (s *server) archivedByFingerprint(spec *antdensity.Spec) (*archivedRun, bool) {
	if s.store == nil {
		return nil, false
	}
	fp, ok := spec.Fingerprint()
	if !ok {
		return nil, false
	}
	return s.store.lookupFP(fp)
}

// recordSubmit journals an accepted submission and arranges for its
// terminal state to be journaled too. On a journal write failure it
// returns the error and leaves the run unwatched: the run would not
// survive a restart, so the caller must cancel it rather than
// acknowledge it.
func (s *server) recordSubmit(mr *antdensity.ManagedRun, req runRequest) error {
	if s.store == nil {
		return nil
	}
	spec, err := json.Marshal(req)
	if err == nil {
		err = s.store.jr.Append(journal.Record{
			Type: journal.TypeSubmit,
			ID:   mr.ID,
			Seq:  seqFromID(mr.ID),
			Spec: spec,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "antdensity: journal: submit %s: %v\n", mr.ID, err)
		return fmt.Errorf("journal: submit %s: %w", mr.ID, err)
	}
	s.watch(mr)
	return nil
}

// watch journals mr's terminal state once it finishes. Runs canceled
// while draining are skipped on purpose — the restart re-runs them.
func (s *server) watch(mr *antdensity.ManagedRun) {
	s.waiters.Add(1)
	go func() {
		defer s.waiters.Done()
		<-mr.Run.Done()
		state := mr.Run.State()
		if state == antdensity.StateCanceled && s.isDraining() {
			return
		}
		rec := journal.Record{
			Type:  journal.TypeTerminal,
			ID:    mr.ID,
			Seq:   seqFromID(mr.ID),
			State: state.String(),
		}
		snap := snapshotResponse(mr)
		rec.Error = snap.Error
		if b, err := json.Marshal(snap); err == nil {
			rec.Snap = b
		}
		if state == antdensity.StateDone {
			rec.Fingerprint, _ = mr.Run.Spec().Fingerprint() // "" (omitted) when there is none
			if res, err := mr.Run.Result(); err == nil {
				stamped := *res
				stamped.ID = mr.ID
				var buf bytes.Buffer
				if err := results.WriteJSON(&buf, &stamped); err == nil {
					rec.Result = buf.Bytes()
				}
			}
		}
		if err := s.store.jr.Append(rec); err != nil {
			fmt.Fprintf(os.Stderr, "antdensity: journal: terminal %s: %v\n", mr.ID, err)
		}
	}()
}

// archivedResult is GET /v1/runs/{id}/result for journal-replayed
// runs: completed results are served verbatim from the journal.
func (s *server) archivedResult(w http.ResponseWriter, ar *archivedRun) {
	if ar.state == antdensity.StateDone.String() && len(ar.result) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(ar.result)
		return
	}
	writeJSON(w, http.StatusGone, ar.snap)
}

// seqFromID extracts the numeric suffix of a manager id ("r000123" ->
// 123; 0 when the id has another shape).
func seqFromID(id string) int {
	if len(id) < 2 || id[0] != 'r' {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0
	}
	return n
}
