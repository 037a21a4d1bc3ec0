package main

// The serve subcommand exposes the v2 Run/Manager API over HTTP+JSON:
//
//	POST   /v1/runs             submit a run spec        -> {"id": ...}
//	GET    /v1/runs             list runs with snapshots
//	GET    /v1/runs/{id}        live anytime snapshot
//	GET    /v1/runs/{id}/events live snapshot stream (SSE)
//	DELETE /v1/runs/{id}        cancel (idempotent)
//	GET    /v1/runs/{id}/result structured result (200 when done,
//	                            202 + snapshot while running,
//	                            410 + error when canceled/failed)
//
// Result payloads are the internal/results typed model — the same
// schema-stable JSON (non-finite floats as strings, value + CI95 +
// trial count cells) the experiment CLI emits, so downstream tooling
// parses experiment tables and service results with one decoder.
//
// The service is built to survive real load and restarts:
//
//   - Durability (-data-dir): accepted specs and terminal results are
//     appended to a JSONL journal; on startup the journal is replayed,
//     completed results are served without recomputation, and
//     interrupted runs are re-submitted under their original ids
//     (serve_store.go).
//   - Backpressure: the Manager queue is bounded (-queue-limit) and
//     over-limit submissions get 429 + Retry-After instead of growing
//     an unbounded backlog; -rate adds a per-client token bucket
//     (serve_limit.go). Request bodies are capped at 1 MiB (413).
//   - Result cache: submissions are deduplicated by the Spec's
//     canonical fingerprint — the stack is deterministic, so an
//     identical (Spec, seed) is served from the existing run (live or
//     journaled) instead of recomputed. Disable with -no-cache.
//   - Streaming: /events pushes every published anytime snapshot over
//     SSE via Run.Updated, replacing client polling (serve_sse.go).

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"antdensity"
	"antdensity/internal/results"
)

// maxRequestBody caps POST /v1/runs payloads: a run spec is a small
// JSON object, so anything past 1 MiB is garbage or abuse (413).
const maxRequestBody = 1 << 20

// serveConfig collects the serve knobs shared by cmdServe and the
// tests.
type serveConfig struct {
	workers    int     // max concurrent runs (0 = GOMAXPROCS)
	dataDir    string  // journal directory; "" = in-memory only
	queueLimit int     // max queued runs before 429 (0 = unbounded)
	rate       float64 // per-client submissions/sec (0 = no limit)
	burst      int     // per-client token-bucket burst
	noCache    bool    // disable the (Spec, seed) result cache
}

// cmdServe runs the HTTP service until SIGINT/SIGTERM, then drains:
// in-flight requests finish, running results are journaled, and the
// journal is closed cleanly.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	var cfg serveConfig
	fs.IntVar(&cfg.workers, "workers", 0, "max concurrent runs (0 = GOMAXPROCS)")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "journal directory for durable runs (empty = in-memory only)")
	fs.IntVar(&cfg.queueLimit, "queue-limit", 1024, "max queued runs before submissions get 429 (0 = unbounded)")
	fs.Float64Var(&cfg.rate, "rate", 0, "per-client submissions per second (0 = no rate limit)")
	fs.IntVar(&cfg.burst, "burst", 20, "per-client rate-limit burst")
	fs.BoolVar(&cfg.noCache, "no-cache", false, "disable the (Spec, seed) result cache")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newServer(cfg)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: s.handler(),
		// Slowloris guard: a client gets 10s to finish its headers and
		// 30s for the whole (1 MiB max) request. No WriteTimeout — the
		// SSE stream is long-lived by design; it terminates on client
		// disconnect or server drain instead.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(os.Stderr, "antdensity: serving on http://%s (max %d concurrent runs, queue limit %d)\n",
		*addr, s.m.MaxConcurrent(), cfg.queueLimit)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		s.close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "antdensity: draining (signal received)")
	// Stop SSE streams first so Shutdown's in-flight wait can finish,
	// then drain HTTP, then cancel/await runs and seal the journal.
	s.beginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		fmt.Fprintf(os.Stderr, "antdensity: shutdown: %v\n", err)
	}
	s.close()
	return nil
}

// server glues the Manager to the HTTP layer: journaling, archived
// (journal-replayed) runs, the rate limiter, and drain state.
type server struct {
	m       *antdensity.Manager
	store   *runStore    // nil without -data-dir
	limiter *rateLimiter // nil without -rate
	cache   bool

	closing  chan struct{} // closed once when draining begins
	waiters  sync.WaitGroup
	drainMu  sync.Mutex
	draining bool
}

// newServer builds the service: opens and replays the journal (when
// configured), re-submits interrupted runs, then applies the
// admission bound to fresh traffic.
func newServer(cfg serveConfig) (*server, error) {
	s := &server{
		m:       antdensity.NewManager(cfg.workers),
		cache:   !cfg.noCache,
		closing: make(chan struct{}),
	}
	if cfg.rate > 0 {
		s.limiter = newRateLimiter(cfg.rate, cfg.burst)
	}
	if cfg.dataDir != "" {
		if err := openRunStore(cfg.dataDir, s); err != nil {
			s.m.Close()
			return nil, err
		}
	}
	// After replay: the replayed backlog must never be rejected by the
	// fresh-traffic admission bound.
	if cfg.queueLimit > 0 {
		s.m.SetQueueLimit(cfg.queueLimit)
	}
	return s, nil
}

// beginDrain flips the server into drain mode: SSE streams terminate,
// and runs cancelled by the impending Manager.Close are NOT journaled
// as canceled — they stay "interrupted" so a restart re-runs them.
func (s *server) beginDrain() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.closing)
}

// isDraining reports whether drain mode has begun.
func (s *server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// close tears the service down: cancels every run, waits for the
// journal waiters to record final states, and seals the journal.
func (s *server) close() {
	s.beginDrain()
	s.m.Close()
	s.waiters.Wait()
	if s.store != nil {
		s.store.close()
	}
}

// handler builds the /v1 route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.withRun(w, r, func(mr *antdensity.ManagedRun) {
			writeJSON(w, http.StatusOK, snapshotResponse(mr))
		}, func(ar *archivedRun) {
			writeJSON(w, http.StatusOK, ar.snap)
		})
	})
	mux.HandleFunc("GET /v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		s.withRun(w, r, func(mr *antdensity.ManagedRun) {
			s.streamEvents(w, r, mr)
		}, func(ar *archivedRun) {
			s.streamArchivedEvents(w, ar)
		})
	})
	mux.HandleFunc("DELETE /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.withRun(w, r, func(mr *antdensity.ManagedRun) {
			// Manager.Cancel (not Run.Cancel) so queued runs are
			// compacted out of the admission queue.
			s.m.Cancel(mr.ID)
			writeJSON(w, http.StatusOK, snapshotResponse(mr))
		}, func(ar *archivedRun) {
			// Archived runs are terminal; cancel is a no-op.
			writeJSON(w, http.StatusOK, ar.snap)
		})
	})
	mux.HandleFunc("GET /v1/runs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		s.withRun(w, r, func(mr *antdensity.ManagedRun) {
			handleResult(w, mr)
		}, func(ar *archivedRun) {
			s.archivedResult(w, ar)
		})
	})
	return mux
}

// runRequest is the POST /v1/runs payload: a JSON rendering of a
// Spec plus a graph recipe. Like a Spec it has no layout field: the
// run's world picks its own shape, so a POST naming one (such as
// "shards") gets the unknown-field 400, while journal replay, which
// decodes with json.Unmarshal, ignores it in archived records.
type runRequest struct {
	Kind  string       `json:"kind"`
	Graph graphRequest `json:"graph"`

	Agents int    `json:"agents,omitempty"`
	Rounds int    `json:"rounds"`
	Seed   uint64 `json:"seed,omitempty"`

	Tagged     int               `json:"tagged,omitempty"`      // tag agents 0..Tagged-1
	TaggedOnly bool              `json:"tagged_only,omitempty"` // count tagged collisions only
	Noise      *noiseRequest     `json:"noise,omitempty"`
	Adversary  *adversaryRequest `json:"adversary,omitempty"`

	Threshold  float64 `json:"threshold,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	C1         float64 `json:"c1,omitempty"`
	PolicySeed uint64  `json:"policy_seed,omitempty"`

	Walkers    int   `json:"walkers,omitempty"`
	BurnIn     *int  `json:"burn_in,omitempty"` // omitted = auto (spectral)
	Stationary bool  `json:"stationary,omitempty"`
	SeedVertex int64 `json:"seed_vertex,omitempty"`

	SnapshotEvery int `json:"snapshot_every,omitempty"`
}

type noiseRequest struct {
	DetectProb   float64 `json:"detect_prob"`
	SpuriousProb float64 `json:"spurious_prob"`
	Seed         uint64  `json:"seed,omitempty"`
}

// adversaryRequest is the wire form of an AdversarySpec: kind is the
// fault strategy ("inflate", "deflate", "random", "lie", "stall",
// "crash"), fraction the adversarial fraction in [0, 1], param the
// strategy parameter (0 = default), and seed the adversary seed (0 =
// derived from the run seed).
type adversaryRequest struct {
	Kind     string  `json:"kind"`
	Fraction float64 `json:"fraction"`
	Param    float64 `json:"param,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
}

// specFromRequest translates the wire request into a Spec.
func specFromRequest(req runRequest) (*antdensity.Spec, error) {
	kind, err := antdensity.ParseKind(req.Kind)
	if err != nil {
		return nil, err
	}
	g, err := buildGraph(req.Graph)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	s := antdensity.NewSpec(kind,
		antdensity.WithGraph(g),
		antdensity.WithAgents(req.Agents),
		antdensity.WithSeed(req.Seed),
		antdensity.WithRounds(req.Rounds),
	)
	s.Threshold = req.Threshold
	if req.Delta != 0 {
		s.Delta = req.Delta
	}
	if req.C1 != 0 {
		s.C1 = req.C1
	}
	s.PolicySeed = req.PolicySeed
	s.TaggedCount = req.Tagged
	s.TaggedOnly = req.TaggedOnly
	if req.Noise != nil {
		s.Noise = &antdensity.NoiseSpec{
			DetectProb:   req.Noise.DetectProb,
			SpuriousProb: req.Noise.SpuriousProb,
			Seed:         req.Noise.Seed,
		}
	}
	if req.Adversary != nil {
		s.Adversary = &antdensity.AdversarySpec{
			Kind:     req.Adversary.Kind,
			Fraction: req.Adversary.Fraction,
			Param:    req.Adversary.Param,
			Seed:     req.Adversary.Seed,
		}
	}
	s.Walkers = req.Walkers
	if req.BurnIn != nil {
		s.BurnIn = *req.BurnIn
	}
	s.Stationary = req.Stationary
	s.SeedVertex = req.SeedVertex
	if req.SnapshotEvery != 0 {
		s.SnapshotEvery = req.SnapshotEvery
	}
	return s, nil
}

// runSnapshot is the wire form of a run's anytime view. Decided and
// YesVotes are pointers emitted exactly for the quorum kinds: a
// quorum run with zero yes-votes serializes "yes_votes": 0, which is
// distinguishable from a non-quorum run (field absent).
type runSnapshot struct {
	ID           string  `json:"id"`
	Kind         string  `json:"kind"`
	State        string  `json:"state"`
	Round        int     `json:"round"`
	MaxRounds    int     `json:"max_rounds"`
	Progress     float64 `json:"progress"`
	NumAgents    int     `json:"num_agents,omitempty"`
	MeanEstimate float64 `json:"mean_estimate"`
	Decided      *int    `json:"decided,omitempty"`
	YesVotes     *int    `json:"yes_votes,omitempty"`
	Error        string  `json:"error,omitempty"`
	Cached       bool    `json:"cached,omitempty"`
}

func snapshotResponse(mr *antdensity.ManagedRun) runSnapshot {
	return snapshotView(mr, mr.Run.Snapshot())
}

// snapshotView renders one snapshot of mr in wire form.
func snapshotView(mr *antdensity.ManagedRun, snap antdensity.Snapshot) runSnapshot {
	kind := mr.Run.Spec().Kind
	out := runSnapshot{
		ID:           mr.ID,
		Kind:         kind.String(),
		State:        snap.State.String(),
		Round:        snap.Round,
		MaxRounds:    snap.MaxRounds,
		Progress:     snap.Progress,
		NumAgents:    snap.NumAgents,
		MeanEstimate: snap.Mean,
		Error:        snap.Err,
	}
	if kind == antdensity.KindQuorum || kind == antdensity.KindQuorumAdaptive {
		yes := snap.YesVotes
		out.YesVotes = &yes
	}
	if kind == antdensity.KindQuorumAdaptive {
		decided := snap.Decided
		out.Decided = &decided
	}
	return out
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil {
		if ok, retry := s.limiter.allow(clientKey(r)); !ok {
			writeRetryAfter(w, retry, fmt.Errorf("rate limit exceeded; retry after %v", retry))
			return
		}
	}
	var req runRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	spec, err := specFromRequest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Serve identical deterministic work from what already exists: a
	// journaled result first, then a live (or retained) run.
	if s.cache {
		if ar, ok := s.archivedByFingerprint(spec); ok {
			snap := ar.snap
			snap.Cached = true
			writeJSON(w, http.StatusOK, snap)
			return
		}
	}
	var mr *antdensity.ManagedRun
	var cached bool
	if s.cache {
		mr, cached, err = s.m.SubmitDeduped(spec)
	} else {
		mr, err = s.m.Submit(spec)
	}
	switch {
	case errors.Is(err, antdensity.ErrQueueFull):
		writeRetryAfter(w, time.Second, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if cached {
		snap := snapshotResponse(mr)
		snap.Cached = true
		writeJSON(w, http.StatusOK, snap)
		return
	}
	if err := s.recordSubmit(mr, req); err != nil {
		s.m.Cancel(mr.ID)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusCreated, snapshotResponse(mr))
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	var out []runSnapshot
	if s.store != nil {
		out = append(out, s.store.archivedSnapshots()...)
	}
	for _, mr := range s.m.Runs() {
		out = append(out, snapshotResponse(mr))
	}
	if out == nil {
		out = []runSnapshot{}
	}
	writeJSON(w, http.StatusOK, out)
}

func handleResult(w http.ResponseWriter, mr *antdensity.ManagedRun) {
	switch mr.Run.State() {
	case antdensity.StateDone:
		res, err := mr.Run.Result()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		// Stamp the manager id without mutating the run's copy.
		stamped := *res
		stamped.ID = mr.ID
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if err := results.WriteJSON(w, &stamped); err != nil {
			// Headers are gone; nothing more to do than drop the
			// connection mid-body.
			return
		}
	case antdensity.StateCanceled, antdensity.StateFailed:
		writeJSON(w, http.StatusGone, snapshotResponse(mr))
	default:
		writeJSON(w, http.StatusAccepted, snapshotResponse(mr))
	}
}

// withRun resolves {id} against live runs, then the journal archive,
// and 404s unknown ids.
func (s *server) withRun(w http.ResponseWriter, r *http.Request,
	live func(*antdensity.ManagedRun), archived func(*archivedRun)) {
	id := r.PathValue("id")
	if mr, ok := s.m.Get(id); ok {
		live(mr)
		return
	}
	if s.store != nil {
		if ar, ok := s.store.get(id); ok {
			archived(ar)
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown run id %q", id))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeRetryAfter rejects with 429 and a whole-second Retry-After
// hint (the header's integer form; always >= 1).
func writeRetryAfter(w http.ResponseWriter, retry time.Duration, err error) {
	secs := int(retry.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, err)
}
