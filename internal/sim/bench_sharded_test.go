package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"antdensity/internal/benchenv"
	"antdensity/internal/topology"
)

// Sharded-stepping benchmarks: the PR 9 spatial domain decomposition
// on the 4096×4096 torus (16.8M nodes). One op is a synchronous round
// via Step, which runs min(shards, GOMAXPROCS) workers, so `-cpu 1,2,4`
// sweeps the worker count; shards=1 is the flat serial baseline. The
// default population is 1M agents so the CI `-benchtime=1x` smoke
// stays cheap; set SHARD_BENCH_10M=1 for the
// 10M-agent configuration recorded in BENCH_PR9.json. Numbers from a
// machine whose GOMAXPROCS exceeds its hardware CPUs measure
// oversubscription, not scaling — see the "env" block in
// BENCH_PR9.json and internal/benchenv.

// benchShardAgents resolves the benchmark population: 1M by default,
// 10M with SHARD_BENCH_10M=1, and a small population under the race
// detector (the CI race smoke runs every BenchmarkWorld* at 1x, and a
// race-instrumented 1M-agent build is all setup cost).
func benchShardAgents() int {
	if raceEnabled {
		return 1 << 16
	}
	if os.Getenv("SHARD_BENCH_10M") != "" {
		return 10 << 20
	}
	return 1 << 20
}

func BenchmarkWorldStepSharded(b *testing.B) {
	g := topology.MustTorus(2, 4096)
	agents := benchShardAgents()
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("torus2d-4096/%d/s%d", agents, shards), func(b *testing.B) {
			w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 1, Shards: shards})
			defer w.Close()
			w.Step() // warm pool, scratch, and outbox capacities
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
}

// BenchmarkWorldStepCountSharded is the full Algorithm 1 inner round
// (step + every agent's count) sharded: it additionally exercises the
// incremental slab occupancy through migration and the shard-local
// bulk count reduction. The occupancy representation follows the
// world's size alone, so at 1M agents the flat baseline and the 4
// slabs both hold a dense index of the same 128 MiB: the comparison is
// at equal memory.
func BenchmarkWorldStepCountSharded(b *testing.B) {
	g := topology.MustTorus(2, 4096)
	agents := benchShardAgents()
	counts := make([]int, agents)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("torus2d-4096/%d/s%d", agents, shards), func(b *testing.B) {
			w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 1, Shards: shards})
			defer w.Close()
			w.CountsAllInto(counts) // build the live index
			w.Step()
			w.CountsAllInto(counts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
				w.CountsAllInto(counts)
			}
		})
	}
}

// shardScalingReport is the JSON written by TestShardScaling (the CI
// shard-scaling gate): wall-clock per round for the flat serial world
// and the 4-shard world stepped on 4 workers, with the benchenv block
// making oversubscribed numbers machine-detectable.
type shardScalingReport struct {
	Env        benchenv.Env `json:"env"`
	Graph      string       `json:"graph"`
	Agents     int          `json:"agents"`
	Rounds     int          `json:"rounds"`
	FlatNsOp   int64        `json:"flat_ns_per_round"`
	Shard4NsOp int64        `json:"shards4_ns_per_round"`
	Speedup    float64      `json:"speedup"`
}

// TestShardScaling is the CI multi-core regression gate: on a runner
// with >= 4 CPUs, a 1M-agent 4096×4096 torus stepped as 4 shards on 4
// workers must beat the flat serial world. It times Step alone, which
// builds no occupancy index. Gated behind SHARD_SCALING=1 because
// wall-clock assertions are meaningless on loaded or single-core
// machines; CI runs it on the multi-core runner. SHARD_SCALING_OUT
// names a JSON report path.
func TestShardScaling(t *testing.T) {
	if os.Getenv("SHARD_SCALING") == "" {
		t.Skip("set SHARD_SCALING=1 to run the wall-clock shard scaling gate")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("need >= 4 CPUs for an honest scaling measurement, have %d", n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := topology.MustTorus(2, 4096)
	const agents = 1 << 20
	const rounds = 40
	measure := func(shards int) time.Duration {
		w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 1, Shards: shards})
		defer w.Close()
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			for r := 0; r < 3; r++ { // warm pool, scratch, outboxes
				w.Step()
			}
			start := time.Now()
			for r := 0; r < rounds; r++ {
				w.Step()
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	flat := measure(1)
	sharded := measure(4)
	speedup := float64(flat) / float64(sharded)
	t.Logf("flat serial: %v/round, shards=4 workers=4: %v/round, speedup %.2fx",
		flat/rounds, sharded/rounds, speedup)
	if out := os.Getenv("SHARD_SCALING_OUT"); out != "" {
		rep := shardScalingReport{
			Env:        benchenv.Capture(),
			Graph:      "torus2d-4096",
			Agents:     agents,
			Rounds:     rounds,
			FlatNsOp:   flat.Nanoseconds() / rounds,
			Shard4NsOp: sharded.Nanoseconds() / rounds,
			Speedup:    speedup,
		}
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if sharded >= flat {
		t.Errorf("shards=4 at 4 workers (%v) is not faster than shards=1 serial (%v)", sharded, flat)
	}
}
