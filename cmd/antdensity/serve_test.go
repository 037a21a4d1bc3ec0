package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer mounts the /v1 routes on an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *server) {
	return newTestServerCfg(t, serveConfig{workers: 2})
}

// newTestServerCfg is newTestServer with explicit serve knobs.
func newTestServerCfg(t *testing.T, cfg serveConfig) (*httptest.Server, *server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		srv.Close()
		s.close()
	})
	return srv, s
}

func postRun(t *testing.T, srv *httptest.Server, body string) runSnapshot {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/runs = %d: %s", resp.StatusCode, buf.String())
	}
	var snap runSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" {
		t.Fatal("submit response has no id")
	}
	return snap
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantStatus, buf.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", url, err)
		}
	}
}

// TestServeSmoke is the end-to-end satellite check: POST a small
// density run, poll its snapshot, fetch the structured result, and
// JSON-parse every payload.
func TestServeSmoke(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 41,
		"rounds": 300,
		"seed": 7
	}`)
	if snap.Kind != "density" || snap.MaxRounds != 300 {
		t.Fatalf("submit snapshot = %+v", snap)
	}

	// Poll until done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, srv.URL+"/v1/runs/"+snap.ID, http.StatusOK, &snap)
		if snap.State == "done" {
			break
		}
		if snap.State == "failed" || snap.State == "canceled" {
			t.Fatalf("run ended in state %q: %s", snap.State, snap.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never finished: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap.Round != 300 || snap.Progress != 1 || snap.NumAgents != 41 {
		t.Fatalf("final snapshot = %+v", snap)
	}
	if snap.MeanEstimate <= 0 {
		t.Fatalf("final mean estimate = %v", snap.MeanEstimate)
	}

	// The structured result is the schema-stable results.Result JSON.
	var res struct {
		ID      string             `json:"id"`
		Metrics map[string]float64 `json:"metrics"`
		Series  []struct {
			Name string            `json:"name"`
			Rows []json.RawMessage `json:"rows"`
		} `json:"series"`
	}
	getJSON(t, srv.URL+"/v1/runs/"+snap.ID+"/result", http.StatusOK, &res)
	if res.ID != snap.ID {
		t.Errorf("result id = %q, want %q", res.ID, snap.ID)
	}
	if len(res.Series) != 1 || len(res.Series[0].Rows) != 41 {
		t.Fatalf("result series shape: %+v", res.Series)
	}
	for _, m := range []string{"rounds", "num_agents", "true_density", "mean_estimate"} {
		if _, ok := res.Metrics[m]; !ok {
			t.Errorf("result missing metric %q (got %v)", m, res.Metrics)
		}
	}

	// The run list includes it.
	var list []runSnapshot
	getJSON(t, srv.URL+"/v1/runs", http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != snap.ID {
		t.Fatalf("run list = %+v", list)
	}
}

// TestServeCancel checks DELETE semantics and the result status codes
// around a cancelled run.
func TestServeCancel(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 21,
		"rounds": 1000000000,
		"seed": 1
	}`)

	// Result while running: 202 with a snapshot body.
	var running runSnapshot
	getJSON(t, srv.URL+"/v1/runs/"+snap.ID+"/result", http.StatusAccepted, &running)

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}

	// Cancellation propagates within a round; poll briefly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, srv.URL+"/v1/runs/"+snap.ID, http.StatusOK, &snap)
		if snap.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never cancelled: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.Error == "" {
		t.Error("cancelled snapshot has no error")
	}
	getJSON(t, srv.URL+"/v1/runs/"+snap.ID+"/result", http.StatusGone, nil)
}

// TestServeErrors covers the 4xx paths.
func TestServeErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	// Unknown run id.
	getJSON(t, srv.URL+"/v1/runs/r424242", http.StatusNotFound, nil)
	// Unknown kind, unknown graph kind, invalid specs, malformed JSON.
	// ER(2, 0.5) at seed 0 draws no edge, so its connected component is
	// one isolated node: a netsize seed vertex of degree 0, and a graph
	// without edges for a stationary start. A netsize seed start on the
	// bipartite 64² torus would report about half its size, and auto
	// burn-in on the 1023³ torus would need a spectral gap over more
	// nodes than SpectralGap takes. A stationary start on the complete
	// graph of 4.5e9 nodes draws below its degree sum, about 2.0e19,
	// which no int64 holds.
	for _, body := range []string{
		`{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 5, "rounds": 10, "shards": 65}`,
		`{"kind": "nope", "graph": {"kind": "torus2d", "side": 20}, "agents": 5, "rounds": 10}`,
		`{"kind": "density", "graph": {"kind": "klein-bottle"}, "agents": 5, "rounds": 10}`,
		`{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 0, "rounds": 10}`,
		`{"kind": "netsize", "graph": {"kind": "er", "nodes": 2, "degree": 1, "seed": 0}, "walkers": 10, "rounds": 50}`,
		`{"kind": "netsize", "graph": {"kind": "er", "nodes": 2, "degree": 1, "seed": 0}, "walkers": 10, "rounds": 50, "stationary": true}`,
		`{"kind": "netsize", "graph": {"kind": "torus", "dims": 2, "side": 64}, "walkers": 1000, "rounds": 2000, "seed": 5}`,
		`{"kind": "netsize", "graph": {"kind": "torus", "dims": 3, "side": 1023}, "walkers": 100, "rounds": 50}`,
		`{"kind": "netsize", "graph": {"kind": "complete", "nodes": 4500000000}, "walkers": 8, "rounds": 3, "stationary": true}`,
		`{"kind": "density", "bogus_field": 1}`,
		`{not json`,
	} {
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
			t.Errorf("POST %s = %d (err %v, body %+v), want 400 with error JSON", body, resp.StatusCode, err, e)
		}
		// A world picks its own shape, so a request has no layout field.
		if strings.Contains(body, `"shards"`) && !strings.Contains(e.Error, `unknown field "shards"`) {
			t.Errorf("POST %s: error %q does not name the unknown field shards", body, e.Error)
		}
		if strings.Contains(body, "4500000000") && !strings.Contains(e.Error, "more than the limit of 9223372036854775807") {
			t.Errorf("POST %s: error %q does not name the int64 limit", body, e.Error)
		}
	}
}

// TestServeNetsizeRun exercises a non-world kind over the wire.
func TestServeNetsizeRun(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "netsize",
		"graph": {"kind": "torus", "dims": 3, "side": 7},
		"walkers": 20,
		"rounds": 40,
		"stationary": true,
		"seed": 2
	}`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, srv.URL+"/v1/runs/"+snap.ID, http.StatusOK, &snap)
		if snap.State == "done" {
			break
		}
		if snap.State == "failed" || snap.State == "canceled" {
			t.Fatalf("run ended in state %q: %s", snap.State, snap.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("netsize run never finished: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var res struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	getJSON(t, srv.URL+"/v1/runs/"+snap.ID+"/result", http.StatusOK, &res)
	if res.Metrics["size"] <= 0 {
		t.Fatalf("netsize result metrics = %v", res.Metrics)
	}
}

// TestServeAdversarialRun submits an adversarial spec over the wire
// and checks the adversary-gated metric block survives the JSON round
// trip — plus that a bad adversary block is a 400, not a run.
func TestServeAdversarialRun(t *testing.T) {
	srv, _ := newTestServer(t)
	snap := postRun(t, srv, `{
		"kind": "density",
		"graph": {"kind": "torus2d", "side": 20},
		"agents": 41,
		"rounds": 300,
		"seed": 7,
		"adversary": {"kind": "inflate", "fraction": 0.2, "param": 5}
	}`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, srv.URL+"/v1/runs/"+snap.ID, http.StatusOK, &snap)
		if snap.State == "done" {
			break
		}
		if snap.State == "failed" || snap.State == "canceled" {
			t.Fatalf("run ended in state %q: %s", snap.State, snap.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("adversarial run never finished: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var res struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	getJSON(t, srv.URL+"/v1/runs/"+snap.ID+"/result", http.StatusOK, &res)
	if res.Metrics["adversaries"] != 8 {
		t.Errorf("adversaries metric = %v, want 8", res.Metrics["adversaries"])
	}
	for _, m := range []string{"estimate_mean", "estimate_mom", "detect_tpr", "detect_fpr"} {
		if _, ok := res.Metrics[m]; !ok {
			t.Errorf("result missing adversary metric %q (got %v)", m, res.Metrics)
		}
	}

	// Invalid adversary blocks must be rejected at submit time.
	for _, body := range []string{
		`{"kind": "density", "graph": {"kind": "torus2d", "side": 20}, "agents": 41,
		  "rounds": 300, "adversary": {"kind": "bribe", "fraction": 0.2}}`,
		`{"kind": "netsize", "graph": {"kind": "torus2d", "side": 20}, "walkers": 4,
		  "rounds": 30, "stationary": true, "adversary": {"kind": "inflate", "fraction": 0.2}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad adversary submit = %d, want 400", resp.StatusCode)
		}
	}
}
