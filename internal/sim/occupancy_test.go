package sim

import (
	"runtime"
	"testing"

	"antdensity/internal/topology"
)

func TestCountsAllMatchesCount(t *testing.T) {
	g := topology.MustTorus(2, 5)
	w := MustWorld(Config{Graph: g, NumAgents: 40, Seed: 1})
	for r := 0; r < 10; r++ {
		w.Step()
		counts := w.CountsAll()
		for i := range counts {
			if counts[i] != w.Count(i) {
				t.Fatalf("round %d agent %d: CountsAll %d != Count %d", r, i, counts[i], w.Count(i))
			}
		}
	}
}

func TestCountsAllSortedMatchesHash(t *testing.T) {
	// The ablation path must agree exactly with the hash-based index
	// on dense and sparse worlds.
	cases := []struct {
		name   string
		side   int64
		agents int
	}{
		{name: "dense", side: 4, agents: 60},
		{name: "sparse", side: 100, agents: 30},
		{name: "single", side: 10, agents: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := topology.MustTorus(2, tc.side)
			w := MustWorld(Config{Graph: g, NumAgents: tc.agents, Seed: 7})
			for r := 0; r < 8; r++ {
				w.Step()
				hash := w.CountsAll()
				sorted := w.CountsAllSorted()
				for i := range hash {
					if hash[i] != sorted[i] {
						t.Fatalf("round %d agent %d: hash %d != sorted %d", r, i, hash[i], sorted[i])
					}
				}
			}
		})
	}
}

// TestStepParallelMatchesSerial pins who steps in parallel: at
// GOMAXPROCS 4, Step on an unsharded world stays serial and builds no
// worker pool, while Step on a 4-shard world runs a 4-worker pool and
// matches the flat world bit for bit.
func TestStepParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := topology.MustTorus(2, 50)
	serial := MustWorld(Config{Graph: g, NumAgents: 500, Seed: 9})
	parallel := MustWorld(Config{Graph: g, NumAgents: 500, Seed: 9, Shards: 4})
	defer parallel.Close()
	for r := 0; r < 20; r++ {
		serial.Step()
		parallel.Step()
	}
	if serial.pool != nil {
		t.Error("Step on an unsharded world built a worker pool")
	}
	if parallel.pool == nil || parallel.pool.workers() != 4 {
		t.Error("Step on a 4-shard world at GOMAXPROCS 4 did not run a 4-worker pool")
	}
	for i := 0; i < serial.NumAgents(); i++ {
		if serial.Pos(i) != parallel.Pos(i) {
			t.Fatalf("agent %d diverged: serial %d, parallel %d", i, serial.Pos(i), parallel.Pos(i))
		}
	}
	if serial.Round() != parallel.Round() {
		t.Errorf("round counters differ: %d vs %d", serial.Round(), parallel.Round())
	}
}

// TestStepParallelSmallWorldFallback steps a sharded world with more
// workers than shards and fewer agents than either, leaving most slabs
// empty: the worker count clamps to the shard count and the round
// completes.
func TestStepParallelSmallWorldFallback(t *testing.T) {
	g := topology.MustTorus(2, 10)
	w := MustWorld(Config{Graph: g, NumAgents: 3, Seed: 2, Shards: 5})
	defer w.Close()
	w.stepSharded(16) // must not panic or skip
	if w.Round() != 1 {
		t.Errorf("Round = %d, want 1", w.Round())
	}
	if w.pool == nil || w.pool.workers() != 5 {
		t.Errorf("stepSharded(16) on 5 shards did not run a 5-worker pool")
	}
}

func BenchmarkCountsAllHash(b *testing.B) {
	g := topology.MustTorus(2, 100)
	w := MustWorld(Config{Graph: g, NumAgents: 10000, Seed: 1})
	w.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.occDirty = true // force a rebuild to measure indexing cost
		_ = w.CountsAll()
	}
}

func BenchmarkCountsAllSorted(b *testing.B) {
	g := topology.MustTorus(2, 100)
	w := MustWorld(Config{Graph: g, NumAgents: 10000, Seed: 1})
	w.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.CountsAllSorted()
	}
}

func BenchmarkStepSerial10k(b *testing.B) {
	g := topology.MustTorus(2, 1000)
	w := MustWorld(Config{Graph: g, NumAgents: 10000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}
