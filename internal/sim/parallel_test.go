package sim

import (
	"testing"

	"antdensity/internal/topology"
)

// TestStepParallelWorkerInvariance asserts that stepping a sharded
// world on k workers (stepSharded(k), the kernel Step runs with
// min(shards, GOMAXPROCS)) is bit-identical to Step on its flat twin
// for every worker count, including more workers than shards —
// positions, counts, and round counters — so parallel stepping can
// never change an experiment's numbers. Run under -race this also
// exercises the worker goroutines for data races.
func TestStepParallelWorkerInvariance(t *testing.T) {
	g := topology.MustTorus(2, 40)
	const agents = 600
	const rounds = 12
	for _, k := range []int{1, 2, 8} {
		k := k
		serial := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 77})
		parallel := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 77, Shards: 4})
		defer parallel.Close()
		for i := 0; i < agents; i += 7 {
			serial.SetTagged(i, true)
			parallel.SetTagged(i, true)
		}
		for r := 1; r <= rounds; r++ {
			serial.Step()
			parallel.stepSharded(k)
			sp, pp := serial.Positions(), parallel.Positions()
			sc, pc := serial.CountsAll(), parallel.CountsAll()
			st, pt := serial.CountsTaggedAll(), parallel.CountsTaggedAll()
			for i := 0; i < agents; i++ {
				if sp[i] != pp[i] {
					t.Fatalf("k=%d round %d agent %d: position %d != %d", k, r, i, pp[i], sp[i])
				}
				if sc[i] != pc[i] {
					t.Fatalf("k=%d round %d agent %d: count %d != %d", k, r, i, pc[i], sc[i])
				}
				if st[i] != pt[i] {
					t.Fatalf("k=%d round %d agent %d: tagged count %d != %d", k, r, i, pt[i], st[i])
				}
			}
			if serial.Round() != parallel.Round() {
				t.Fatalf("k=%d round %d: round counters %d != %d", k, r, parallel.Round(), serial.Round())
			}
		}
	}
}
