package sim

import (
	"runtime"
	"sync"
)

// stepPool is a persistent set of worker goroutines that sharded
// worlds reuse every round, instead of spawning goroutines and a
// channel per call. The pool is created lazily by the first Step that
// runs on two or more workers, and resized only when the worker count
// (min(shards, GOMAXPROCS)) changes;
// steady-state rounds perform two channel operations per worker and
// allocate nothing.
//
// Workers hold a reference to the pool but never to a World between
// rounds (the job is cleared after each round), so an abandoned World
// stays collectible; a GC cleanup then stops the pool's goroutines.
// Close stops them promptly.
type stepPool struct {
	signal []chan struct{} // one buffered wake-up channel per worker
	done   chan struct{}   // completion tokens, capacity len(signal)
	job    stepJob         // current round's work; valid only mid-round
	once   sync.Once       // guards channel close in stop
}

// jobKind selects what a pool dispatch runs over its [lo, hi) range
// of shards.
type jobKind uint8

const (
	// jobShardPhase1 runs shard-local stepping plus emigrant
	// classification (sharded.go).
	jobShardPhase1 jobKind = iota
	// jobShardPhase2 runs emigrant eviction and the deterministic
	// immigrant merge.
	jobShardPhase2
	// jobShardCounts runs the bulk count scatter from the shard-local
	// occupancy indexes.
	jobShardCounts
)

// stepJob describes one dispatch of work. Chunk boundaries are a pure
// function of (chunk, n, worker id), so the shard-to-worker assignment
// is deterministic — not that it matters for output: every shard phase
// touches only slab-owned state, so any assignment yields identical
// bytes.
type stepJob struct {
	w     *World
	kind  jobKind
	chunk int
	n     int
}

func newStepPool(workers int) *stepPool {
	p := &stepPool{
		signal: make([]chan struct{}, workers),
		done:   make(chan struct{}, workers),
	}
	for g := range p.signal {
		ch := make(chan struct{}, 1)
		p.signal[g] = ch
		go p.work(g, ch)
	}
	return p
}

func (p *stepPool) workers() int { return len(p.signal) }

// work is one worker's loop: wake, run the assigned chunk, report.
func (p *stepPool) work(g int, signal <-chan struct{}) {
	for range signal {
		j := p.job
		lo := g * j.chunk
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		if lo < hi {
			switch j.kind {
			case jobShardPhase1:
				for s := lo; s < hi; s++ {
					j.w.shardPhase1(s)
				}
			case jobShardPhase2:
				for s := lo; s < hi; s++ {
					j.w.shardPhase2(s)
				}
			case jobShardCounts:
				for s := lo; s < hi; s++ {
					j.w.shardCountsRange(s)
				}
			}
		}
		p.done <- struct{}{}
	}
}

// run dispatches one job of n shards across all workers, in
// contiguous chunks, and blocks until every chunk is done — a barrier.
// Trailing workers whose chunk starts past n simply idle. The world
// reference is cleared before returning so an idle pool keeps nothing
// alive but itself.
func (p *stepPool) run(w *World, kind jobKind, n int) {
	k := len(p.signal)
	chunk := (n + k - 1) / k
	p.job = stepJob{w: w, kind: kind, chunk: chunk, n: n}
	for _, ch := range p.signal {
		ch <- struct{}{}
	}
	for range p.signal {
		<-p.done
	}
	p.job = stepJob{}
}

// stop terminates the pool's goroutines. Idempotent.
func (p *stepPool) stop() {
	p.once.Do(func() {
		for _, ch := range p.signal {
			close(ch)
		}
	})
}

// ensurePool returns a pool with exactly the requested worker count,
// creating or replacing the world's pool as needed.
func (w *World) ensurePool(workers int) *stepPool {
	if w.pool != nil && w.pool.workers() == workers {
		return w.pool
	}
	if w.pool != nil {
		w.pool.stop()
	}
	p := newStepPool(workers)
	w.pool = p
	// Stop the goroutines when the world is garbage collected; the
	// cleanup must reference only the pool, never w.
	runtime.AddCleanup(w, func(p *stepPool) { p.stop() }, p)
	return p
}

// Close stops the world's persistent worker pool, if stepping a
// sharded world on two or more workers created one. It is optional —
// an unreachable World's pool is stopped by a GC cleanup — but
// releases the goroutines promptly. The world remains usable; a later
// Step creates a fresh pool.
func (w *World) Close() {
	if w.pool != nil {
		w.pool.stop()
		w.pool = nil
	}
}
