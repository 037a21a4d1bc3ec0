package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"antdensity"
	"antdensity/internal/results"
	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
)

// inproc is one in-process Spec → Output workload.
type inproc struct {
	name string
	// build makes the workload's Spec from its seed: the graph (timed
	// under a socialnet.build span when it is sampled) and the Spec.
	build func(seed uint64, smoke bool, tr *tracer, id int) (*antdensity.Spec, error)
	// check judges the result against the paper's guarantee.
	check func(r *results.Result) error
	// replay re-executes the Spec through the layers' public calls.
	replay func(tr *tracer, id int, spec *antdensity.Spec, out antdensity.Output) (replayCounts, error)
}

var inprocWorkloads = []*inproc{
	{
		name: "density-torus",
		build: func(seed uint64, smoke bool, _ *tracer, _ int) (*antdensity.Spec, error) {
			side, agents, rounds := int64(512), 50_000, 400
			if smoke {
				side, agents, rounds = 64, 1600, 200
			}
			return antdensity.DensitySpec(
				antdensity.WithTorus2D(side),
				antdensity.WithAgents(agents),
				antdensity.WithRounds(rounds),
				antdensity.WithSeed(splitmix(seed, 1)),
			), nil
		},
		check: func(r *results.Result) error {
			est, _ := r.Metric("mean_estimate")
			d, _ := r.Metric("true_density")
			if rel := math.Abs(est-d) / d; !(rel <= 0.01) {
				return fmt.Errorf("mean_estimate %v is %.3g%% off true_density %v (limit 1%%)", est, 100*rel, d)
			}
			return nil
		},
		replay: replayTorus,
	},
	{
		name: "netsize-ba",
		build: func(seed uint64, smoke bool, tr *tracer, id int) (*antdensity.Spec, error) {
			nodes, walkers, steps := int64(20_000), 4_000, 5_000
			if smoke {
				nodes, walkers, steps = 2_000, 400, 300
			}
			graphSeed := splitmix(seed, 2)
			s := -1
			if tr != nil {
				s = tr.begin(id, "socialnet.build")
			}
			g, err := socialnet.BarabasiAlbert(nodes, 4, rng.New(graphSeed))
			if tr != nil {
				tr.end(s)
			}
			if err != nil {
				return nil, err
			}
			spec := antdensity.NetworkSizeSpec(
				antdensity.WithGraph(g),
				antdensity.WithWalkers(walkers),
				antdensity.WithRounds(steps),
				antdensity.WithSeed(splitmix(seed, 1)),
			)
			// The recipe identity serve gives sampled graphs.
			spec.GraphKey = fmt.Sprintf("ba:nodes=%d,degree=%d,seed=%d", nodes, 4, graphSeed)
			return spec, nil
		},
		check: func(r *results.Result) error {
			size, _ := r.Metric("size")
			want := 20_000.0
			if n, ok := r.Metric("walkers"); ok && n < 4_000 {
				want = 2_000 // smoke size
			}
			if rel := math.Abs(size-want) / want; !(rel <= 0.10) {
				return fmt.Errorf("size %v is %.3g%% off %v (limit 10%%)", size, 100*rel, want)
			}
			return nil
		},
		replay: replayNetsize,
	},
}

// repTiming is one Spec → Output rep.
type repTiming struct {
	setup, result time.Duration
	cpu           time.Duration
	alloc         uint64
	gcs           uint32
	out           antdensity.Output
	bytes         int
}

// repRunner runs reps of one (Spec, seed) and checks that every rep
// encodes to the same bytes and passes the workload's check.
type repRunner struct {
	w     *inproc
	cfg   config
	buf   bytes.Buffer
	first *[32]byte
}

// rep runs one rep: build and compile the Spec (setup), then Start →
// Result → WriteJSON (time to result). With a tracer it records spans
// under trace id; every != 0 overrides the Spec's SnapshotEvery.
func (rr *repRunner) rep(tr *tracer, id int, every int, runSpan string) (t repTiming, _ *antdensity.Spec, err error) {
	if tr != nil {
		mark := len(tr.spans)
		defer func() {
			if err != nil {
				tr.rollback(mark)
			}
		}()
	}
	// Every rep starts from a collected heap with its free pages returned
	// to the OS, as a fresh process would. Leaving that to the
	// background scavenger made rep times bimodal (about 1.0 s and
	// 1.4 s on density-torus), depending on how much of the last rep's
	// memory was still mapped.
	debug.FreeOSMemory()
	alloc0, gc0 := memSnapshot()
	cpu0 := cpuTime()
	begin := func(name string) int {
		if tr == nil {
			return -1
		}
		return tr.begin(id, name)
	}
	end := func(s int) {
		if tr != nil {
			tr.end(s)
		}
	}
	root := begin("rep")
	t0 := time.Now()
	spec, err := rr.w.build(rr.cfg.seed, rr.cfg.smoke, tr, id)
	if err != nil {
		return t, nil, err
	}
	if every != 0 {
		spec.SnapshotEvery = every
	}
	s := begin("antdensity.new_run")
	run, err := spec.NewRun()
	end(s)
	if err != nil {
		return t, nil, err
	}
	t1 := time.Now()
	s = begin(runSpan)
	if err := run.Start(context.Background()); err != nil {
		return t, nil, err
	}
	res, err := run.Result()
	end(s)
	if err != nil {
		return t, nil, err
	}
	rr.buf.Reset()
	s = begin("results.encode")
	err = results.WriteJSON(&rr.buf, res)
	end(s)
	t2 := time.Now()
	end(root)
	if err != nil {
		return t, nil, err
	}
	t.cpu = cpuTime() - cpu0
	alloc1, gc1 := memSnapshot()
	t.setup, t.result = t1.Sub(t0), t2.Sub(t1)
	t.alloc, t.gcs = alloc1-alloc0, gc1-gc0
	t.bytes = rr.buf.Len()
	if t.out, err = run.Output(); err != nil {
		return t, nil, err
	}
	if every == 0 {
		sum := sha256.Sum256(rr.buf.Bytes())
		if rr.first == nil {
			rr.first = &sum
		} else if sum != *rr.first {
			return t, nil, fmt.Errorf("result bytes differ from the first rep of the same (Spec, seed)")
		}
	}
	return t, spec, rr.w.check(res)
}

// keepGoing reports whether a measuring loop that has done n
// iterations since start should do another.
func (c config) keepGoing(n, min int, start time.Time) bool {
	if c.smoke {
		return n < 2
	}
	return n < min || time.Since(start) < c.duration()
}

// measureInproc is the untraced run: a discarded warm-up rep, then reps
// until the run's seconds are spent.
func measureInproc(w *inproc, cfg config) (*report, error) {
	rep := newReport(false)
	calib := calibSamples()
	rr := &repRunner{w: w, cfg: cfg}
	rep.Attempted++
	if _, _, err := rr.rep(nil, 0, 0, "antdensity.run"); err != nil {
		rep.fail("%s warm-up rep: %v", w.name, err)
	}
	var setups, resultsMs, busy, cpu []float64
	for start, n := time.Now(), 0; cfg.keepGoing(n, 5, start); n++ {
		rep.Attempted++
		t, _, err := rr.rep(nil, 0, 0, "antdensity.run")
		if err != nil {
			rep.fail("%s rep %d: %v", w.name, n, err)
			continue
		}
		setups = append(setups, t.setup.Seconds())
		resultsMs = append(resultsMs, float64(t.result)/1e6)
		busy = append(busy, (t.setup + t.result).Seconds())
		cpu = append(cpu, float64(t.cpu)/1e6)
	}
	if len(resultsMs) == 0 {
		return nil, fmt.Errorf("%s: no rep succeeded", w.name)
	}
	calib = append(calib, calibSamples()...)
	rep.set("setup_s", median(setups))
	rep.set("result_p50_ms", median(resultsMs))
	rep.set("throughput_rps", float64(len(busy))/sum(busy))
	rep.set("cpu_ms", median(cpu))
	fmt.Printf("# %s: %d reps, env.calib_ms start %.3f end %.3f, result_ms per rep %.0f\n",
		w.name, len(resultsMs), median(calib[:3]), median(calib[3:]), resultsMs)
	return rep, nil
}

// traceInproc is the traced run. Each iteration runs an untraced rep
// (the overhead baseline), a traced rep and a traced rep at
// SnapshotEvery=rounds, then the layer replay of the same (Spec, seed).
func traceInproc(w *inproc, cfg config) (*report, *tracer, error) {
	rep := newReport(true)
	calib := calibSamples()
	tr := newTracer(time.Now())
	rr := &repRunner{w: w, cfg: cfg}
	rep.Attempted++
	_, spec, err := rr.rep(nil, 0, 0, "antdensity.run")
	if err != nil {
		return nil, nil, fmt.Errorf("%s warm-up rep: %w", w.name, err)
	}
	var plain, traced, allocs, gcs []float64
	var counts replayCounts
	iters := 0
	for start, n := time.Now(), 0; cfg.keepGoing(n, 3, start); n++ {
		id := n + 1
		var out antdensity.Output
		failed := false
		// The reps rotate their order, so whatever a rep leaves behind
		// for the next (heap layout, caches) falls on each kind alike.
		for k := 0; k < 3 && !failed; k++ {
			rep.Attempted++
			var t repTiming
			var err error
			switch (n + k) % 3 {
			case 0:
				if t, _, err = rr.rep(nil, 0, 0, "antdensity.run"); err == nil {
					plain = append(plain, t.result.Seconds())
				}
			case 1:
				if t, _, err = rr.rep(tr, id, 0, "antdensity.run"); err == nil {
					traced = append(traced, t.result.Seconds())
					allocs = append(allocs, float64(t.alloc)/(1<<20))
					gcs = append(gcs, float64(t.gcs))
					rep.set("results.bytes", float64(t.bytes))
					out = t.out
				}
			case 2:
				_, _, err = rr.rep(tr, id, spec.Rounds, "antdensity.run_throttled")
			}
			if err != nil {
				rep.fail("%s rep: %v", w.name, err)
				failed = true
			}
		}
		if failed {
			continue
		}
		rep.Attempted++
		mark := len(tr.spans)
		s := tr.begin(id, "replay")
		c, err := w.replay(tr, id, spec, out)
		if err != nil {
			tr.rollback(mark)
			rep.fail("%s replay does not reproduce the Spec run: %v", w.name, err)
			continue
		}
		tr.end(s)
		counts = c
		iters++
	}
	if iters == 0 {
		return nil, nil, fmt.Errorf("%s: no traced iteration succeeded", w.name)
	}
	self, err := tr.selfTimes()
	if err != nil {
		return nil, nil, err
	}
	per := func(name string) float64 { return self[name].Seconds() / float64(iters) }
	runS := median(tr.durations("antdensity.run"))
	snapshot := runS - median(tr.durations("antdensity.run_throttled"))
	rep.set("antdensity.run_s", runS)
	rep.set("antdensity.new_run_s", median(tr.durations("antdensity.new_run")))
	rep.set("results.encode_s", median(tr.durations("results.encode")))
	rep.set("sim.new_world_s", median(tr.durations("sim.new_world")))
	rep.set("antdensity.snapshot_frac", snapshot/runS)
	counts.report(rep, per, runS)
	rep.set("antdensity.unattributed_frac", (runS-snapshot-counts.attributed(per))/runS)
	if build := sum(tr.durations("socialnet.build")); build > 0 {
		rep.set("socialnet.build_frac", build/(build+sum(tr.durations("antdensity.new_run"))))
	}
	rep.set("runtime.alloc_mb", median(allocs))
	rep.set("runtime.gc_cycles", median(gcs))
	rep.set("trace.overhead_frac", median(traced)/median(plain)-1)
	rep.set("trace.spans", float64(len(tr.spans)))
	calib = append(calib, calibSamples()...)
	rep.set("env.calib_ms", median(calib))
	fmt.Printf("# %s: %d traced iterations, env.calib_ms start %.3f end %.3f\n", w.name, iters, median(calib[:3]), median(calib[3:]))
	return rep, tr, nil
}
