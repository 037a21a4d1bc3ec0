package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"antdensity"
	"antdensity/internal/journal"
	"antdensity/internal/results"
	"antdensity/internal/rng"
)

// The serve-journal workload: a closed loop of one client per CPU
// against `antdensity serve -data-dir`. A warm-up pass fills the
// journal; the server is stopped with SIGTERM and restarted over that
// journal (the set-up being measured), and the measured pass runs
// against the restarted server.

const (
	serveSide   = 20
	serveAgents = 41
	serveRounds = 200
)

// key is one (spec, seed) the workload submits.
type key struct {
	kind string // density, quorum or property
	seed uint64
}

// serveRequest is the POST /v1/runs body.
type serveRequest struct {
	Kind          string       `json:"kind"`
	Graph         graphRequest `json:"graph"`
	Agents        int          `json:"agents"`
	Rounds        int          `json:"rounds"`
	Seed          uint64       `json:"seed"`
	Tagged        int          `json:"tagged,omitempty"`
	Threshold     float64      `json:"threshold,omitempty"`
	SnapshotEvery int          `json:"snapshot_every"`
}

type graphRequest struct {
	Kind string `json:"kind"`
	Side int64  `json:"side"`
}

func (k key) request() serveRequest {
	r := serveRequest{
		Kind:          k.kind,
		Graph:         graphRequest{Kind: "torus2d", Side: serveSide},
		Agents:        serveAgents,
		Rounds:        serveRounds,
		Seed:          k.seed,
		SnapshotEvery: serveRounds,
	}
	switch k.kind {
	case "quorum":
		r.Threshold = 0.1
	case "property":
		r.Tagged = 10
	}
	return r
}

// spec is the Spec serve compiles the request into.
func (k key) spec() *antdensity.Spec {
	kind, err := antdensity.ParseKind(k.kind)
	if err != nil {
		panic(err)
	}
	r := k.request()
	s := antdensity.NewSpec(kind,
		antdensity.WithTorus2D(r.Graph.Side),
		antdensity.WithAgents(r.Agents),
		antdensity.WithSeed(r.Seed),
		antdensity.WithRounds(r.Rounds),
		antdensity.WithSnapshotEvery(r.SnapshotEvery),
	)
	s.Threshold = r.Threshold
	s.TaggedCount = r.Tagged
	return s
}

// requestGen yields the workload's request sequence: 60% density, 20%
// quorum, 20% property, and half of all submissions repeat an earlier
// (spec, seed). The sequence depends only on the seed; which client
// sends which request does not change it.
//
// A repeat picks a journaled warm-up run or one of the last
// recentRuns fresh runs. The Manager keeps only its last
// antdensity.DefaultRetention finished runs, and a cached answer that
// names a run at that edge can be evicted before the client reads it
// (a 404 at HEAD); recentRuns keeps repeats well inside the window.
// A repeat is posted only after its original's POST has returned, so
// every repeat is a cache hit whatever the clients' interleaving.
type requestGen struct {
	mu       sync.Mutex
	rnd      rng.Stream
	history  []key                 // fresh keys, in request order
	posted   map[key]chan struct{} // closed once the fresh key's POST returned
	archived int                   // leading history keys the restarted server replays from its journal
	issued   int
}

const recentRuns = antdensity.DefaultRetention / 2

func newRequestGen(seed uint64) *requestGen {
	return &requestGen{rnd: *rng.New(splitmix(seed, 3)), posted: make(map[key]chan struct{})}
}

// next returns the next request, its index, whether it is a fresh
// key, and the channel closed once that key's first POST returned; ok
// is false once limit requests have been issued (limit < 0: no limit).
func (g *requestGen) next(limit int) (i int, k key, fresh bool, posted chan struct{}, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if limit >= 0 && g.issued >= limit {
		return 0, key{}, false, nil, false
	}
	i = g.issued
	g.issued++
	if len(g.history) > 0 && g.rnd.Float64() < 0.5 {
		recent := min(len(g.history)-g.archived, recentRuns)
		j := g.rnd.Intn(g.archived + recent)
		if j >= g.archived {
			j += len(g.history) - g.archived - recent
		}
		k = g.history[j]
		return i, k, false, g.posted[k], true
	}
	k = key{kind: "density", seed: g.rnd.Uint64n(1<<40) + 1}
	switch u := g.rnd.Float64(); {
	case u >= 0.8:
		k.kind = "property"
	case u >= 0.6:
		k.kind = "quorum"
	}
	g.history = append(g.history, k)
	posted = make(chan struct{})
	g.posted[k] = posted
	return i, k, true, posted, true
}

// outcome is one completed request.
type outcome struct {
	idx                           int // request index in the workload's sequence
	key                           key
	id                            string
	cached                        bool
	sum                           [32]byte
	latency, submit, wait, result time.Duration
	traced                        bool
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
	}
}

// do sends one request: POST the spec, follow /events until the end
// event, GET the result. A fresh key's request closes posted once its
// POST returns; a repeat first waits for that. A traced request
// records client spans.
func (c *client) do(idx int, k key, fresh bool, posted chan struct{}, traced bool) (o outcome, err error) {
	o.idx, o.key, o.traced = idx, k, traced
	if !fresh {
		<-posted
	}
	mark := len(c.tr.spans)
	begin := func(name string) int {
		if !traced {
			return -1
		}
		return c.tr.begin(idx, name)
	}
	end := func(s int) {
		if traced {
			c.tr.end(s)
		}
	}
	defer func() {
		if err != nil && traced {
			c.tr.rollback(mark)
		}
	}()
	t0 := time.Now()
	root := begin("serve.request")
	s := begin("serve.submit")
	body, err := json.Marshal(k.request())
	if err != nil {
		return o, err
	}
	var snap struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	err = c.call(http.MethodPost, "/v1/runs", body, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&snap)
	}, http.StatusCreated, http.StatusOK)
	if fresh {
		close(posted)
	}
	if err != nil {
		return o, fmt.Errorf("submit: %w", err)
	}
	o.id, o.cached = snap.ID, snap.Cached
	end(s)
	t1 := time.Now()
	s = begin("serve.wait")
	if err := c.call(http.MethodGet, "/v1/runs/"+o.id+"/events", nil, waitEnd, http.StatusOK); err != nil {
		return o, fmt.Errorf("events %s: %w", o.id, err)
	}
	end(s)
	t2 := time.Now()
	s = begin("serve.result")
	if err := c.call(http.MethodGet, "/v1/runs/"+o.id+"/result", nil, func(r io.Reader) error {
		b, err := io.ReadAll(r)
		o.sum = sha256.Sum256(b)
		return err
	}, http.StatusOK); err != nil {
		return o, fmt.Errorf("result %s: %w", o.id, err)
	}
	end(s)
	end(root)
	t3 := time.Now()
	o.submit, o.wait, o.result, o.latency = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	return o, nil
}

// call makes one HTTP request, hands the body to read when the status
// is one of ok, and drains the body so the connection is reused.
func (c *client) call(method, path string, body []byte, read func(io.Reader) error, ok ...int) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	good := false
	for _, s := range ok {
		good = good || resp.StatusCode == s
	}
	if !good {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if err := read(resp.Body); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// waitEnd reads an SSE stream until its end event. The end event's
// state is not checked: at HEAD the server can send the snapshot state
// it read just before the run turned terminal ("running"), so whether
// the run finished is judged by the result GET that follows.
func waitEnd(r io.Reader) error {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("stream ended without an end event: %w", err)
		}
		if strings.TrimSpace(line) == "event: end" {
			return nil
		}
	}
}

// pass runs the closed loop: each client sends its next request when
// the previous one completes, until limit requests were issued, or,
// with limit < 0, until d has passed and at least min requests were
// issued. With traced set, every second request records spans.
func pass(clients []*client, gen *requestGen, limit int, d time.Duration, min int, traced bool, rep *report) ([]outcome, time.Duration) {
	var wg sync.WaitGroup
	outs := make([][]outcome, len(clients))
	var mu sync.Mutex
	issued := gen.issued
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for {
				i, k, fresh, posted, ok := gen.next(limit)
				if !ok {
					return
				}
				o, err := c.do(i, k, fresh, posted, traced && i%2 == 1)
				if err != nil {
					mu.Lock()
					rep.fail("request %d: %v", i, err)
					mu.Unlock()
				} else {
					outs[ci] = append(outs[ci], o)
				}
				if limit < 0 && time.Since(start) >= d && i+1 >= min {
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	rep.Attempted += gen.issued - issued
	return all, wall
}

// server is one running `antdensity serve` child.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed when its stderr reaches EOF
}

// startServer launches the server over dataDir and returns once probe
// answered 2xx (any status when probe is ""), with the time from
// launch to that answer.
func startServer(bin, dataDir, probe string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	t0 := time.Now()
	cmd := exec.Command(bin, "serve", "-addr", addr, "-data-dir", dataDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	serving := make(chan struct{})
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if !announced && strings.Contains(line, "antdensity: serving on") {
				announced = true
				close(serving)
				continue
			}
			if strings.Contains(line, "journal: replayed") || strings.Contains(line, "draining") {
				continue
			}
			fmt.Fprintln(os.Stderr, "serve:", line)
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	// The announcement comes after journal replay, right before the
	// listener opens; the probe loop below only spans that gap.
	select {
	case <-serving:
	case <-s.exited:
		s.stop()
		return nil, 0, fmt.Errorf("server exited before serving")
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("server did not start within 60s")
	}
	hc := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	path := probe
	if path == "" {
		path = "/v1/runs/none"
	}
	for {
		resp, err := hc.Get(s.base + path)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if probe != "" && resp.StatusCode/100 != 2 {
				s.stop()
				return nil, 0, fmt.Errorf("probe %s: status %d", probe, resp.StatusCode)
			}
			return s, time.Since(t0), nil
		}
		if !errors.Is(err, syscall.ECONNREFUSED) || time.Since(t0) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("probe %s: %w", probe, err)
		}
	}
}

// stop sends SIGTERM, waits for the drain, and returns the server's
// peak RSS in MB.
func (s *server) stop() float64 {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	_ = s.cmd.Wait()
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// cpuSeconds reads the server's user+system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat")
	}
	return (ut + st) / 100, nil // USER_HZ is 100 on Linux
}

func clientsFor(srv *server, n int, tr []*tracer) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(srv.base, tr[i])
	}
	return cs
}

// runServe runs the serve-journal workload.
func runServe(cfg config) (*report, *tracer, error) {
	rep := newReport(cfg.trace)
	calib := calibSamples()
	dir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	data := filepath.Join(dir, "data")
	warmN, restarts, measuredMin := 2000, 9, 1000
	if cfg.smoke {
		warmN, restarts, measuredMin = 40, 2, 40
	}
	nClients := runtime.NumCPU()
	tracers := make([]*tracer, nClients)
	base := time.Now()
	for i := range tracers {
		tracers[i] = newTracer(base)
	}
	gen := newRequestGen(cfg.seed)

	srv, _, err := startServer(cfg.bin, data, "")
	if err != nil {
		return nil, nil, err
	}
	warm, _ := pass(clientsFor(srv, nClients, tracers), gen, warmN, 0, 0, false, rep)
	srv.stop()
	if len(warm) == 0 {
		return nil, nil, fmt.Errorf("warm-up pass completed no request")
	}
	gen.archived = len(gen.history)
	var warmJournal []byte
	if cfg.trace {
		if warmJournal, err = os.ReadFile(filepath.Join(data, journal.FileName)); err != nil {
			return nil, nil, err
		}
	}

	probe := "/v1/runs/" + warm[0].id
	var setups []float64
	for i := 0; ; i++ {
		var d time.Duration
		if srv, d, err = startServer(cfg.bin, data, probe); err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == restarts {
			break
		}
		srv.stop()
	}
	defer srv.stop() // on early returns; stopping twice is harmless
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	limit := -1
	if cfg.smoke {
		limit = gen.issued + measuredMin
	}
	measured, wall := pass(clientsFor(srv, nClients, tracers), gen, limit, cfg.duration(), gen.issued+measuredMin, cfg.trace, rep)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	rss := srv.stop()
	if len(measured) == 0 {
		return nil, nil, fmt.Errorf("measured pass completed no request")
	}
	verifyServe(append(append([]outcome(nil), warm...), measured...), rep)

	lat := make([]float64, len(measured))
	for i, o := range measured {
		lat[i] = float64(o.latency) / 1e6
	}
	if !cfg.trace {
		rep.set("setup_s", median(setups))
		rep.set("result_p50_ms", median(lat))
		rep.set("throughput_rps", float64(len(measured))/wall.Seconds())
		rep.set("cpu_ms", (cpu1-cpu0)*1e3/float64(len(measured)))
		rep.set("peak_rss_mb", rss)
		fmt.Printf("# serve-journal: %d warm-up + %d measured requests, p99 %.3f ms, env.calib_ms start %.3f end %.3f\n",
			len(warm), len(measured), percentile(lat, 0.99), median(calib), median(calibSamples()))
		return rep, nil, nil
	}

	tr := tracers[0]
	tr.merge(tracers[1:]...)
	if err := traceServe(tr, rep, dir, warm, measured, warmJournal, data, median(setups)); err != nil {
		return nil, nil, err
	}
	calib = append(calib, calibSamples()...)
	rep.set("env.calib_ms", median(calib))
	rep.set("trace.spans", float64(len(tr.spans)))
	return rep, tr, nil
}

// traceServe sets the serve workload's per-layer metrics: client span
// shares, the benchmark-side journal calls on what the pass wrote, and
// a replay of the pass's specs through the in-process layers.
func traceServe(tr *tracer, rep *report, dir string, warm, measured []outcome, warmJournal []byte, data string, setup float64) error {
	var plain, traced []float64
	var lat, submit, wait, result float64
	hits := 0
	all := make([]float64, 0, len(measured))
	for _, o := range measured {
		ms := float64(o.latency) / 1e6
		all = append(all, ms)
		if o.cached {
			hits++
		}
		if !o.traced {
			plain = append(plain, ms)
			continue
		}
		traced = append(traced, ms)
		lat += o.latency.Seconds()
		submit += o.submit.Seconds()
		wait += o.wait.Seconds()
		result += o.result.Seconds()
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("measured pass too short to compare traced and untraced requests")
	}
	hitFrac := float64(hits) / float64(len(measured))
	rep.set("serve.submit_frac", submit/lat)
	rep.set("serve.wait_frac", wait/lat)
	rep.set("serve.result_frac", result/lat)
	rep.set("serve.tail_ratio", percentile(all, 0.99)/median(all))
	rep.set("serve.cache_hit_frac", hitFrac)
	rep.set("serve.requests", float64(len(measured)))
	rep.set("trace.overhead_frac", median(traced)/median(plain)-1)

	// journal.Open + Reduce of a copy of the warm-up journal.
	warmDir := filepath.Join(dir, "warm")
	if err := os.MkdirAll(warmDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(warmDir, journal.FileName), warmJournal, 0o644); err != nil {
		return err
	}
	s := tr.begin(0, "journal.replay")
	j, recs, _, err := journal.Open(warmDir)
	if err == nil {
		journal.Reduce(recs)
	}
	tr.end(s)
	if err != nil {
		return err
	}
	j.Close()
	entries, _, _ := journal.Reduce(recs)
	var recBytes int
	for _, rec := range recs {
		rec.Time = ""
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		recBytes += len(b) + 1
	}
	rep.set("journal.bytes_per_run", float64(recBytes)/float64(len(entries)))
	rep.set("journal.replay_frac", median(tr.durations("journal.replay"))/setup)

	// journal.Append of the records the measured pass wrote, on the data
	// directory's file system.
	fj, final, _, err := journal.Open(data)
	if err != nil {
		return err
	}
	fj.Close()
	fresh := final[len(recs):]
	if len(fresh) > 400 {
		fresh = fresh[:400]
	}
	if len(fresh) > 0 {
		aj, _, _, err := journal.Open(filepath.Join(dir, "append"))
		if err != nil {
			return err
		}
		for i, rec := range fresh {
			s := tr.begin(-1-i, "journal.append")
			err := aj.Append(rec)
			tr.end(s)
			if err != nil {
				aj.Close()
				return err
			}
		}
		if err := aj.Close(); err != nil {
			return err
		}
		appendS := sum(tr.durations("journal.append")) / float64(len(fresh))
		rep.set("journal.append_frac", (1-hitFrac)*appendS/(lat/float64(len(traced))))
	}

	// Replay the warm-up pass's first distinct specs in-process, taken
	// in request order so the set does not depend on client timing.
	sort.Slice(warm, func(i, j int) bool { return warm[i].idx < warm[j].idx })
	seen := make(map[key]bool)
	var specs []key
	for _, o := range warm {
		if !seen[o.key] && len(specs) < 100 {
			seen[o.key] = true
			specs = append(specs, o.key)
		}
	}
	var allocs, gcs []float64
	var total replayCounts
	var buf bytes.Buffer
	for i, k := range specs {
		id := 1_000_000 + i
		debug.FreeOSMemory()
		alloc0, gc0 := memSnapshot()
		root := tr.begin(id, "rep")
		spec := k.spec()
		s := tr.begin(id, "antdensity.new_run")
		run, err := spec.NewRun()
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(id, "antdensity.run")
		if err := run.Start(context.Background()); err != nil {
			return err
		}
		res, err := run.Result()
		tr.end(s)
		if err != nil {
			return err
		}
		buf.Reset()
		s = tr.begin(id, "results.encode")
		err = results.WriteJSON(&buf, res)
		tr.end(s)
		tr.end(root)
		if err != nil {
			return err
		}
		alloc1, gc1 := memSnapshot()
		allocs = append(allocs, float64(alloc1-alloc0)/(1<<20))
		gcs = append(gcs, float64(gc1-gc0))
		out, _ := run.Output()
		throttled := k.spec()
		throttled.SnapshotEvery = throttled.Rounds
		s = tr.begin(id, "antdensity.run_throttled")
		_, err = runSpec(throttled)
		tr.end(s)
		if err != nil {
			return err
		}
		mark := len(tr.spans)
		s = tr.begin(id, "replay")
		c, err := replayTorus(tr, id, spec, out)
		if err != nil {
			tr.rollback(mark)
			rep.fail("serve spec %v: replay does not reproduce the Spec run: %v", k, err)
			continue
		}
		tr.end(s)
		total.measured += c.measured
		total.agentRounds += c.agentRounds
		total.collisions += c.collisions
		rep.set("results.bytes", float64(buf.Len()))
	}
	n := float64(len(specs))
	counts := replayCounts{measured: total.measured / n, agentRounds: total.agentRounds / n, collisions: total.collisions / n}
	self, err := tr.selfTimes()
	if err != nil {
		return err
	}
	per := func(name string) float64 { return self[name].Seconds() / float64(len(specs)) }
	runS := median(tr.durations("antdensity.run"))
	rep.set("antdensity.run_s", runS)
	rep.set("antdensity.new_run_s", median(tr.durations("antdensity.new_run")))
	rep.set("results.encode_s", median(tr.durations("results.encode")))
	rep.set("sim.new_world_s", median(tr.durations("sim.new_world")))
	snapshot := runS - median(tr.durations("antdensity.run_throttled"))
	rep.set("antdensity.snapshot_frac", snapshot/runS)
	counts.report(rep, per, runS)
	rep.set("antdensity.unattributed_frac", (runS-snapshot-counts.attributed(per))/runS)
	rep.set("runtime.alloc_mb", median(allocs))
	rep.set("runtime.gc_cycles", median(gcs))
	return nil
}

// verifyServe checks every served result against the in-process
// results.WriteJSON of the same spec, stamped with the id it was
// served under; a cached response's id is its original's, so this also
// checks that each cached result equals its original's.
func verifyServe(outs []outcome, rep *report) {
	type served struct {
		id  string
		sum [32]byte
	}
	byKey := make(map[key][]served)
	var keys []key
	for _, o := range outs {
		if _, ok := byKey[o.key]; !ok {
			keys = append(keys, o.key)
		}
		byKey[o.key] = append(byKey[o.key], served{o.id, o.sum})
	}
	work := make(chan key)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for k := range work {
				res, err := runSpec(k.spec())
				want := make(map[string][32]byte)
				for _, sv := range byKey[k] {
					if err != nil {
						break
					}
					sum, ok := want[sv.id]
					if !ok {
						stamped := *res
						stamped.ID = sv.id
						buf.Reset()
						if err = results.WriteJSON(&buf, &stamped); err != nil {
							break
						}
						sum = sha256.Sum256(buf.Bytes())
						want[sv.id] = sum
					}
					if sum != sv.sum {
						mu.Lock()
						rep.fail("served result of %v as %s differs from the in-process result", k, sv.id)
						mu.Unlock()
					}
				}
				if err != nil {
					mu.Lock()
					rep.fail("in-process run of %v: %v", k, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
}

// runSpec runs a Spec in-process to its Result.
func runSpec(s *antdensity.Spec) (*results.Result, error) {
	run, err := s.Start(context.Background())
	if err != nil {
		return nil, err
	}
	return run.Result()
}
