package main

// GET /v1/runs/{id}/events streams a run's anytime snapshots over
// Server-Sent Events, replacing client polling. Run.Snapshot is an
// atomic pointer read and Run.Updated is a closed-channel broadcast
// armed by every publication, so each connected client costs one
// parked goroutine and zero work on the simulation's hot path.
//
// Protocol: each published view arrives as
//
//	event: snapshot
//	data: {"id":...,"state":...,"round":...}        (one line)
//
// and the stream always finishes with the run's terminal view (a
// final snapshot event) followed by
//
//	event: end
//	data: {"state":"done"}
//
// after which the server closes the connection. Completed runs —
// including journal-replayed ones — get their terminal snapshot and
// the end event immediately. The stream also ends when the client
// disconnects or the server drains.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"antdensity"
)

// sseWriter emits SSE frames on a flushable response.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// newSSEWriter negotiates the stream or fails with 500 when the
// connection cannot flush incrementally.
func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("streaming unsupported by this connection"))
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	return &sseWriter{w: w, fl: fl}, true
}

// event writes one SSE frame and flushes it to the client.
func (s *sseWriter) event(name string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, b); err != nil {
		return err
	}
	s.fl.Flush()
	return nil
}

// end emits the closing frame.
func (s *sseWriter) end(state string) {
	_ = s.event("end", map[string]string{"state": state})
}

// streamEvents follows a live run: emit the current view, then one
// snapshot event per publication until the run terminates, the client
// goes away, or the server drains. Termination is decided from the
// snapshot just sent, never from a separate state read: a run stores
// its terminal state before its final snapshot, so a state read can
// run ahead of the snapshot and end the stream without its terminal
// view.
func (s *server) streamEvents(w http.ResponseWriter, r *http.Request, mr *antdensity.ManagedRun) {
	sse, ok := newSSEWriter(w)
	if !ok {
		return
	}
	lastRound, lastState := -1, ""
	for {
		// Arm the wakeup before reading, so a publication landing
		// between the read and the wait still wakes us.
		updated := mr.Run.Updated()
		raw := mr.Run.Snapshot()
		snap := snapshotView(mr, raw)
		if snap.Round != lastRound || snap.State != lastState {
			lastRound, lastState = snap.Round, snap.State
			if err := sse.event("snapshot", snap); err != nil {
				return // client went away
			}
		}
		if raw.State.Terminal() {
			sse.end(snap.State)
			return
		}
		select {
		case <-updated:
		case <-mr.Run.Done():
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		}
	}
}

// streamArchivedEvents serves the SSE contract for journal-replayed
// terminal runs: the final snapshot, then end.
func (s *server) streamArchivedEvents(w http.ResponseWriter, ar *archivedRun) {
	sse, ok := newSSEWriter(w)
	if !ok {
		return
	}
	if err := sse.event("snapshot", ar.snap); err != nil {
		return
	}
	sse.end(ar.state)
}
