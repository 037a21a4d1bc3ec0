package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antdensity"
	"antdensity/internal/journal"
	"antdensity/internal/topology"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name string
	data string
}

// readSSE parses SSE frames off a stream until limit events or EOF.
func readSSE(t *testing.T, r io.Reader, limit int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
				if len(events) >= limit {
					return events
				}
			}
		}
	}
	return events
}

// TestServeSSEStream is the tentpole streaming check: the events
// endpoint pushes every published snapshot in order and finishes with
// the terminal view plus an end frame.
func TestServeSSEStream(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 21,
		"rounds": 400000,
		"snapshot_every": 500,
		"seed": 3
	}`)
	resp, err := http.Get(srv.URL + "/v1/runs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, resp.Body, 5000)
	if len(events) < 3 {
		t.Fatalf("stream had only %d events: %+v", len(events), events)
	}
	last := events[len(events)-1]
	if last.name != "end" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("final event = %+v, want end/done", last)
	}
	prevRound := -1
	var final runSnapshot
	for _, ev := range events[:len(events)-1] {
		if ev.name != "snapshot" {
			t.Fatalf("unexpected event %q mid-stream", ev.name)
		}
		var s runSnapshot
		if err := json.Unmarshal([]byte(ev.data), &s); err != nil {
			t.Fatalf("snapshot event %q: %v", ev.data, err)
		}
		if s.Round < prevRound {
			t.Fatalf("snapshot rounds went backwards: %d after %d", s.Round, prevRound)
		}
		prevRound = s.Round
		final = s
	}
	if final.State != "done" || final.Round != 400000 || final.MeanEstimate <= 0 {
		t.Fatalf("terminal snapshot = %+v", final)
	}
}

// TestServeSSEClientDisconnect checks a dropped client doesn't wedge
// the server: the stream goroutine exits and the run keeps going.
func TestServeSSEClientDisconnect(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 21,
		"rounds": 1000000000,
		"seed": 4
	}`)
	resp, err := http.Get(srv.URL + "/v1/runs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if evs := readSSE(t, resp.Body, 1); len(evs) != 1 || evs[0].name != "snapshot" {
		t.Fatalf("first event = %+v", evs)
	}
	resp.Body.Close() // disconnect mid-stream

	// The service remains fully responsive and the run is still live.
	var live runSnapshot
	getJSON(t, srv.URL+"/v1/runs/"+snap.ID, http.StatusOK, &live)
	if live.State != "running" && live.State != "queued" {
		t.Fatalf("post-disconnect state = %q", live.State)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+snap.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE after disconnect: %v / %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestServeSSETerminalRun: subscribing to an already-finished run
// yields exactly its terminal snapshot and the end frame.
func TestServeSSETerminalRun(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 21,
		"rounds": 100,
		"seed": 5
	}`)
	waitState(t, srv, snap.ID, "done")
	resp, err := http.Get(srv.URL + "/v1/runs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 10)
	if len(events) != 2 || events[0].name != "snapshot" || events[1].name != "end" {
		t.Fatalf("terminal-run stream = %+v", events)
	}
}

// failingGraph wraps a graph and panics once Degree has been called
// budget times, turning a run into a failed one partway through.
type failingGraph struct {
	topology.Graph
	budget atomic.Int64
}

func (g *failingGraph) Degree(v int64) int {
	if g.budget.Add(-1) < 0 {
		panic("failingGraph: degree budget exhausted")
	}
	return g.Graph.Degree(v)
}

// TestServeSSEEndsOnTerminalSnapshot follows runs that end while
// their streams are open: in every stream the last snapshot frame is
// terminal — carrying the error, for a failed run — and the end frame
// repeats its state.
func TestServeSSEEndsOnTerminalSnapshot(t *testing.T) {
	srv, s := newTestServer(t)
	var runs []*antdensity.ManagedRun
	for seed := uint64(1); seed <= 12; seed++ {
		mr, err := s.m.Submit(antdensity.DensitySpec(
			antdensity.WithTorus2D(20),
			antdensity.WithAgents(21),
			antdensity.WithSeed(seed),
			antdensity.WithRounds(2000),
		))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, mr)
	}
	g := &failingGraph{Graph: topology.MustTorus(2, 20)}
	g.budget.Store(21 * 300) // 21 agents fail in round 301
	failing, err := s.m.Submit(antdensity.DensitySpec(
		antdensity.WithGraph(g),
		antdensity.WithAgents(21),
		antdensity.WithRounds(2000),
	))
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, failing)

	var wg sync.WaitGroup
	for _, mr := range runs {
		wg.Add(1)
		go func(mr *antdensity.ManagedRun) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/runs/" + mr.ID + "/events")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			events := readSSE(t, resp.Body, 1<<20)
			n := len(events)
			if n < 2 || events[n-2].name != "snapshot" || events[n-1].name != "end" {
				t.Errorf("%s: stream does not finish with snapshot, end: %+v", mr.ID, events)
				return
			}
			var last runSnapshot
			if err := json.Unmarshal([]byte(events[n-2].data), &last); err != nil {
				t.Errorf("%s: final snapshot %q: %v", mr.ID, events[n-2].data, err)
				return
			}
			want := "done"
			if mr == failing {
				want = "failed"
				if last.Error == "" {
					t.Errorf("%s: failed run's final snapshot carries no error: %+v", mr.ID, last)
				}
			}
			if last.State != want {
				t.Errorf("%s: final snapshot state %q, want %q", mr.ID, last.State, want)
			}
			var end struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(events[n-1].data), &end); err != nil || end.State != last.State {
				t.Errorf("%s: end frame %q does not repeat state %q (%v)", mr.ID, events[n-1].data, last.State, err)
			}
		}(mr)
	}
	wg.Wait()
}

// waitState polls a run's snapshot until it reaches want.
func waitState(t *testing.T, srv *httptest.Server, id, want string) runSnapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var snap runSnapshot
		getJSON(t, srv.URL+"/v1/runs/"+id, http.StatusOK, &snap)
		if snap.State == want {
			return snap
		}
		if snap.State == "failed" || snap.State == "canceled" {
			t.Fatalf("run %s ended in state %q: %s", id, snap.State, snap.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never reached %q: %+v", id, want, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeBodyLimit is the MaxBytesReader satellite: an oversized
// submission gets 413, and the connection keeps working.
func TestServeBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t)
	huge := `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 10, "noise": {"detect_prob": 0.` +
		strings.Repeat("9", maxRequestBody) + `}}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("413 body: %v / %+v", err, e)
	}
	// A normal-sized submission still works afterwards.
	postRun(t, srv, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 5, "rounds": 10, "seed": 1}`)
}

// TestServeInvalidGraphRecipes is the buildGraph validation satellite:
// every graph kind rejects its degenerate parameters with 400, never
// NaN arithmetic or a panic.
func TestServeInvalidGraphRecipes(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, tc := range []struct {
		name  string
		graph string
	}{
		{"torus2d zero side", `{"kind": "torus2d"}`},
		{"torus zero dims", `{"kind": "torus", "side": 5}`},
		{"ring zero nodes", `{"kind": "ring"}`},
		{"hypercube zero bits", `{"kind": "hypercube"}`},
		{"hypercube oversized", `{"kind": "hypercube", "bits": 99}`},
		{"complete one node", `{"kind": "complete", "nodes": 1}`},
		{"regular zero nodes", `{"kind": "regular", "degree": 4}`},
		{"regular zero degree", `{"kind": "regular", "nodes": 64}`},
		{"ba zero nodes", `{"kind": "ba", "degree": 2}`},
		{"ba degree over nodes", `{"kind": "ba", "nodes": 3, "degree": 5}`},
		{"er zero nodes", `{"kind": "er", "degree": 4}`},
		{"er zero degree", `{"kind": "er", "nodes": 100}`},
		{"er degree over nodes", `{"kind": "er", "nodes": 10, "degree": 20}`},
		{"ws zero nodes", `{"kind": "ws", "degree": 2}`},
		{"ws nodes under 2k+2", `{"kind": "ws", "nodes": 4, "degree": 2}`},
		{"unknown kind", `{"kind": "klein-bottle"}`},
	} {
		body := fmt.Sprintf(`{"kind": "density", "graph": %s, "agents": 5, "rounds": 10}`, tc.graph)
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || e.Error == "" {
			t.Errorf("%s: status %d (err %v, body %+v), want 400 with error", tc.name, resp.StatusCode, err, e)
		}
	}
}

// TestServeQuorumSnapshotFields is the omitempty satellite: quorum
// snapshots carry decided/yes_votes even at zero, and non-quorum
// snapshots omit them.
func TestServeQuorumSnapshotFields(t *testing.T) {
	srv, _ := newTestServer(t)
	// A threshold far above any possible estimate: zero yes votes.
	snap := postRun(t, srv, `{
		"kind": "quorum",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 5,
		"rounds": 50,
		"threshold": 1000,
		"seed": 6
	}`)
	waitState(t, srv, snap.ID, "done")
	keys := rawSnapshotKeys(t, srv, snap.ID)
	if _, ok := keys["yes_votes"]; !ok {
		t.Errorf("quorum snapshot is missing yes_votes: %v", keys)
	}
	if v, ok := keys["yes_votes"]; ok && string(v) != "0" {
		t.Errorf("yes_votes = %s, want 0", v)
	}
	if _, ok := keys["decided"]; ok {
		t.Errorf("fixed-horizon quorum snapshot should not carry decided: %v", keys)
	}

	// Adaptive quorum: both fields, even when zero agents decided yet.
	snap = postRun(t, srv, `{
		"kind": "quorum_adaptive",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 5,
		"rounds": 50,
		"threshold": 1000,
		"seed": 6
	}`)
	waitState(t, srv, snap.ID, "done")
	keys = rawSnapshotKeys(t, srv, snap.ID)
	for _, field := range []string{"yes_votes", "decided"} {
		if _, ok := keys[field]; !ok {
			t.Errorf("adaptive quorum snapshot is missing %s: %v", field, keys)
		}
	}

	// Density: neither field on the wire.
	snap = postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 5,
		"rounds": 50,
		"seed": 6
	}`)
	waitState(t, srv, snap.ID, "done")
	keys = rawSnapshotKeys(t, srv, snap.ID)
	for _, field := range []string{"yes_votes", "decided"} {
		if _, ok := keys[field]; ok {
			t.Errorf("density snapshot should not carry %s: %v", field, keys)
		}
	}
}

// rawSnapshotKeys fetches a snapshot as a raw key set, to assert
// field presence rather than decoded values.
func rawSnapshotKeys(t *testing.T, srv *httptest.Server, id string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	keys := map[string]json.RawMessage{}
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestServeQueueFull429 is the backpressure acceptance check: a full
// admission queue turns submissions into 429 + Retry-After instead of
// unbounded queueing.
func TestServeQueueFull429(t *testing.T) {
	srv, _ := newTestServerCfg(t, serveConfig{workers: 1, queueLimit: 1})
	long := func(seed int) string {
		return fmt.Sprintf(`{"kind": "density", "graph": {"kind": "torus2d", "side": 20},
			"agents": 21, "rounds": 1000000000, "seed": %d}`, seed)
	}
	running := postRun(t, srv, long(1)) // occupies the single worker
	queued := postRun(t, srv, long(2))  // fills the queue
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(long(3)))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	errDecode := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit POST = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	if errDecode != nil || e.Error == "" {
		t.Errorf("429 body: %v / %+v", errDecode, e)
	}
	// Draining the queue reopens admission.
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(long(4)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never reopened after drain: last status %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeRateLimit429 covers the per-client token bucket.
func TestServeRateLimit429(t *testing.T) {
	srv, _ := newTestServerCfg(t, serveConfig{workers: 2, rate: 0.5, burst: 2})
	body := func(seed int) string {
		return fmt.Sprintf(`{"kind": "density", "graph": {"kind": "torus2d", "side": 20},
			"agents": 5, "rounds": 10, "seed": %d}`, seed)
	}
	postRun(t, srv, body(1))
	postRun(t, srv, body(2))
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body(3)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate POST = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("rate-limit 429 without Retry-After header")
	}
}

// TestServeResultCache: an identical (Spec, seed) submission is served
// from the existing run — same id, cached flag, no recomputation.
func TestServeResultCache(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 100, "seed": 11}`
	first := postRun(t, srv, body)
	waitState(t, srv, first.ID, "done")

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached POST = %d, want 200", resp.StatusCode)
	}
	var snap runSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Cached || snap.ID != first.ID {
		t.Fatalf("cached snapshot = %+v, want cached hit of %s", snap, first.ID)
	}

	// A sampled graph carries its recipe as the identity, so adj-based
	// submissions cache too.
	baBody := `{"kind": "density", "graph": {"kind": "ba", "nodes": 200, "degree": 3, "seed": 5}, "agents": 11, "rounds": 50, "seed": 12}`
	baFirst := postRun(t, srv, baBody)
	waitState(t, srv, baFirst.ID, "done")
	resp2, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(baBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var baSnap runSnapshot
	if err := json.NewDecoder(resp2.Body).Decode(&baSnap); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || !baSnap.Cached || baSnap.ID != baFirst.ID {
		t.Fatalf("ba cached submit = %d %+v, want 200 cache hit of %s", resp2.StatusCode, baSnap, baFirst.ID)
	}

	// A different seed misses.
	other := postRun(t, srv, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 100, "seed": 12}`)
	if other.ID == first.ID {
		t.Fatal("different seed hit the cache")
	}

	// -no-cache disables dedup entirely.
	srv2, _ := newTestServerCfg(t, serveConfig{workers: 2, noCache: true})
	a := postRun(t, srv2, body)
	waitState(t, srv2, a.ID, "done")
	b := postRun(t, srv2, body)
	if a.ID == b.ID {
		t.Fatal("-no-cache server deduplicated")
	}
}

// TestServeJournalReplay is the durability acceptance check: kill and
// restart with -data-dir serves completed results byte-identically
// and re-runs interrupted runs under their original ids.
func TestServeJournalReplay(t *testing.T) {
	dir := t.TempDir()
	srv1, s1 := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})

	doneBody := `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 100, "seed": 21}`
	done := postRun(t, srv1, doneBody)
	waitState(t, srv1, done.ID, "done")
	resultBefore := getBytes(t, srv1.URL+"/v1/runs/"+done.ID+"/result", http.StatusOK)

	// A run on a sampled graph, whose identity is its content.
	baBody := `{"kind": "density", "graph": {"kind": "ba", "nodes": 400, "degree": 3, "seed": 4}, "agents": 21, "rounds": 100, "seed": 21}`
	ba := postRun(t, srv1, baBody)
	waitState(t, srv1, ba.ID, "done")

	// A user-canceled run must stay canceled across restarts.
	userCanceled := postRun(t, srv1, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 1000000000, "seed": 22}`)
	req, _ := http.NewRequest(http.MethodDelete, srv1.URL+"/v1/runs/"+userCanceled.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	waitTerminal(t, srv1, userCanceled.ID, "canceled")

	// Still in flight at the kill: must be re-run after restart.
	interrupted := postRun(t, srv1, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 1000000000, "seed": 23}`)

	// Kill: drain cancels the in-flight run without journaling it as
	// canceled.
	srv1.Close()
	s1.close()

	// Restart over the same data dir.
	srv2, s2 := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})

	// The archive keeps the done result as compact as the journal holds
	// it, before and after it is served: each GET indents it.
	ar, ok := s2.store.get(done.ID)
	if !ok {
		t.Fatalf("%s is not archived after the restart", done.ID)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, resultBefore); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ar.result, compact.Bytes()) {
		t.Fatalf("replay did not keep the journal's compact bytes: holds %d bytes, the compact form is %d", len(ar.result), compact.Len())
	}

	// The completed result is served byte-identically, without
	// recomputation, on every GET: two concurrent GETs indent the same
	// archived bytes, and a third follows them.
	resultURL := srv2.URL + "/v1/runs/" + done.ID + "/result"
	after := make([][]byte, 3)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(resultURL)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			after[i], errs[i] = io.ReadAll(resp.Body)
			if errs[i] == nil && resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, after[i])
			}
		}(i)
	}
	wg.Wait()
	after[2] = getBytes(t, resultURL, http.StatusOK)
	for i, resultAfter := range after {
		if i < len(errs) && errs[i] != nil {
			t.Fatalf("GET %d of the replayed result: %v", i, errs[i])
		}
		if !bytes.Equal(resultBefore, resultAfter) {
			t.Fatalf("GET %d of the replayed result differs:\nbefore: %s\nafter:  %s", i, resultBefore, resultAfter)
		}
	}
	if !bytes.Equal(ar.result, compact.Bytes()) {
		t.Fatal("serving the result changed the archived compact bytes")
	}

	// Its snapshot and SSE stream survive too.
	var snap runSnapshot
	getJSON(t, srv2.URL+"/v1/runs/"+done.ID, http.StatusOK, &snap)
	if snap.State != "done" || snap.Round != 100 {
		t.Fatalf("replayed snapshot = %+v", snap)
	}

	// The user-canceled run stays canceled (410 on result).
	getJSON(t, srv2.URL+"/v1/runs/"+userCanceled.ID, http.StatusOK, &snap)
	if snap.State != "canceled" {
		t.Fatalf("user-canceled run replayed as %q", snap.State)
	}
	getBytes(t, srv2.URL+"/v1/runs/"+userCanceled.ID+"/result", http.StatusGone)

	// The interrupted run was re-submitted under its original id and
	// is executing again.
	getJSON(t, srv2.URL+"/v1/runs/"+interrupted.ID, http.StatusOK, &snap)
	if snap.State != "running" && snap.State != "queued" {
		t.Fatalf("interrupted run replayed as %q, want running/queued", snap.State)
	}

	// The journaled results also serve cache hits: an identical
	// submission returns the archived run. The ba graph is rebuilt
	// for the submission and hashes to the journaled fingerprint.
	for _, want := range []struct {
		body, id string
	}{{doneBody, done.ID}, {baBody, ba.ID}} {
		if status, snap := submit(t, srv2, want.body); status != http.StatusOK || !snap.Cached || snap.ID != want.id {
			t.Fatalf("archived cache submit = %d %+v, want hit of %s", status, snap, want.id)
		}
	}

	// Fresh ids never collide with journaled ones.
	fresh := postRun(t, srv2, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 5, "rounds": 10, "seed": 99}`)
	for _, old := range []string{done.ID, ba.ID, userCanceled.ID, interrupted.ID} {
		if fresh.ID == old {
			t.Fatalf("fresh id %s collides with journaled id", fresh.ID)
		}
	}

	// The list covers archived and live runs.
	var list []runSnapshot
	getJSON(t, srv2.URL+"/v1/runs", http.StatusOK, &list)
	if len(list) < 5 {
		t.Fatalf("list after replay = %d entries: %+v", len(list), list)
	}
}

// TestServeJournalReplayFallbackSnapshot replays terminal records
// without a readable snapshot: each archived run's snapshot is rebuilt
// from the terminal record, with its kind read from the submit spec.
func TestServeJournalReplayFallbackSnapshot(t *testing.T) {
	dir := t.TempDir()
	jr, _, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journal.Record{
		{Type: journal.TypeSubmit, ID: "r000001", Seq: 1, Spec: json.RawMessage(`{"kind":"quorum","graph":{"kind":"torus2d","side":20},"agents":21,"rounds":100,"threshold":0.05}`)},
		{Type: journal.TypeTerminal, ID: "r000001", Seq: 1, State: "failed", Error: "boom"},
		{Type: journal.TypeSubmit, ID: "r000002", Seq: 2, Spec: json.RawMessage(`{"kind":"netsize","graph":{"kind":"torus2d","side":21},"walkers":10,"rounds":50}`)},
		{Type: journal.TypeTerminal, ID: "r000002", Seq: 2, State: "canceled", Snap: json.RawMessage(`"not a snapshot"`)},
	} {
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	srv, _ := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})
	for _, want := range []runSnapshot{
		{ID: "r000001", Kind: "quorum", State: "failed", Error: "boom"},
		{ID: "r000002", Kind: "netsize", State: "canceled"},
	} {
		var snap runSnapshot
		getJSON(t, srv.URL+"/v1/runs/"+want.ID, http.StatusOK, &snap)
		if snap != want {
			t.Errorf("replayed snapshot = %+v, want %+v", snap, want)
		}
	}
}

// TestServeJournalReplayWithoutFingerprint replays a journal whose
// done run carries no fingerprint, as a journal written before done
// runs journaled one does: the run is still served by id, byte for
// byte, but answers no submission, because its key would have to be
// re-derived from a recipe the current binary might build differently.
func TestServeJournalReplayWithoutFingerprint(t *testing.T) {
	dir := t.TempDir()
	srv1, s1 := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})
	body := `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 100, "seed": 31}`
	done := postRun(t, srv1, body)
	waitState(t, srv1, done.ID, "done")
	resultBefore := getBytes(t, srv1.URL+"/v1/runs/"+done.ID+"/result", http.StatusOK)
	srv1.Close()
	s1.close()

	path := filepath.Join(dir, journal.FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stripped := false
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		var rec map[string]json.RawMessage
		if json.Unmarshal(line, &rec) == nil && string(rec["type"]) == `"terminal"` {
			_, stripped = rec["fingerprint"]
			delete(rec, "fingerprint")
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			line = append(b, '\n')
		}
		out.Write(line)
	}
	if !stripped {
		t.Error("the done run's terminal record carries no fingerprint")
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})
	if after := getBytes(t, srv2.URL+"/v1/runs/"+done.ID+"/result", http.StatusOK); !bytes.Equal(resultBefore, after) {
		t.Fatalf("replayed result differs:\nbefore: %s\nafter:  %s", resultBefore, after)
	}
	if status, snap := submit(t, srv2, body); status != http.StatusCreated || snap.Cached || snap.ID == done.ID {
		t.Fatalf("identical submit = %d %+v, want a fresh run (201)", status, snap)
	}
}

// TestServeJournalReplayIgnoresShards replays a journal whose submit
// records carry a "shards" field, as journals written while requests
// could name a shard count do. The archived done run is served with
// its stored bytes, and the interrupted run is resubmitted and
// finishes with the bytes of the same POST without the field.
func TestServeJournalReplayIgnoresShards(t *testing.T) {
	dir := t.TempDir()
	srv1, s1 := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})
	archived := postRun(t, srv1, `{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 100, "seed": 41}`)
	resumed := postRun(t, srv1, `{"kind": "quorum", "graph": {"kind": "torus2d", "side": 20}, "agents": 41, "rounds": 200, "threshold": 0.1, "seed": 42}`)
	want := map[string][]byte{}
	for _, id := range []string{archived.ID, resumed.ID} {
		waitState(t, srv1, id, "done")
		want[id] = getBytes(t, srv1.URL+"/v1/runs/"+id+"/result", http.StatusOK)
	}
	srv1.Close()
	s1.close()

	// Every submit record gains "shards": 4, and the resumed run loses
	// its terminal record, as if the service had died mid-run.
	path := filepath.Join(dir, journal.FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	shardsAdded := 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		var rec map[string]json.RawMessage
		if json.Unmarshal(line, &rec) != nil {
			out.Write(line)
			continue
		}
		switch string(rec["type"]) {
		case `"terminal"`:
			if string(rec["id"]) == `"`+resumed.ID+`"` {
				continue
			}
		case `"submit"`:
			var spec map[string]json.RawMessage
			if err := json.Unmarshal(rec["spec"], &spec); err != nil {
				t.Fatal(err)
			}
			spec["shards"] = json.RawMessage("4")
			b, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			rec["spec"] = b
			shardsAdded++
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(append(b, '\n'))
	}
	if shardsAdded != 2 {
		t.Fatalf("rewrote %d submit records, want 2", shardsAdded)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServerCfg(t, serveConfig{workers: 2, dataDir: dir})
	if got := getBytes(t, srv2.URL+"/v1/runs/"+archived.ID+"/result", http.StatusOK); !bytes.Equal(got, want[archived.ID]) {
		t.Fatalf("archived result differs:\nbefore: %s\nafter:  %s", want[archived.ID], got)
	}
	waitState(t, srv2, resumed.ID, "done")
	if got := getBytes(t, srv2.URL+"/v1/runs/"+resumed.ID+"/result", http.StatusOK); !bytes.Equal(got, want[resumed.ID]) {
		t.Fatalf("resumed result differs:\nbefore: %s\nafter:  %s", want[resumed.ID], got)
	}
}

// submit POSTs a run and returns the status with the decoded
// snapshot, for callers that expect a cache hit as well as a fresh run.
func submit(t *testing.T, srv *httptest.Server, body string) (int, runSnapshot) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap runSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, snap
}

// TestServeSubmitJournalFailure503 checks that a submission the
// journal cannot record is refused, not acknowledged: the client gets
// 503 naming the journal error, and the run the Manager registered
// ends canceled, since it would not survive a restart.
func TestServeSubmitJournalFailure503(t *testing.T) {
	srv, s := newTestServerCfg(t, serveConfig{workers: 2, dataDir: t.TempDir()})
	if err := s.store.jr.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(
		`{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 21, "rounds": 1000000000, "seed": 24}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "journal: closed") {
		t.Fatalf("POST with a closed journal = %d %s, want 503 naming the journal error", resp.StatusCode, body)
	}
	runs := s.m.Runs()
	if len(runs) != 1 {
		t.Fatalf("Manager holds %d runs, want the one refused submission", len(runs))
	}
	select {
	case <-runs[0].Run.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("the unjournaled run is still executing")
	}
	if st := runs[0].Run.State(); st != antdensity.StateCanceled {
		t.Fatalf("unjournaled run ended %v, want canceled", st)
	}
}

// waitTerminal polls until the run reaches the given terminal state.
func waitTerminal(t *testing.T, srv *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var snap runSnapshot
		getJSON(t, srv.URL+"/v1/runs/"+id, http.StatusOK, &snap)
		if snap.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never reached %q: %+v", id, want, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getBytes fetches a URL asserting the status and returning the body.
func getBytes(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantStatus, body)
	}
	return body
}
