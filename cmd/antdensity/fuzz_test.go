package main

import (
	"encoding/json"
	"testing"

	"antdensity"
	"antdensity/internal/adversary"
)

// fuzz-side resource caps: the sampled graph recipes allocate
// O(nodes*degree) adjacency, so unbounded fuzz inputs would measure
// the machine's RAM instead of the parser. Validation paths below the
// caps (negative, zero, degree > nodes, odd n*d, ...) stay reachable.
const (
	fuzzMaxNodes  = 1 << 14
	fuzzMaxDegree = 64
	fuzzMaxBits   = 20
	fuzzMaxSide   = 1 << 10
	fuzzMaxDims   = 6
)

// FuzzBuildGraph drives the graph-recipe parser with arbitrary request
// JSON: decode must never panic, buildGraph must either error or hand
// back a usable graph (positive node count, in-range neighbors at node
// 0), and building the same recipe again must give a graph with the
// same GraphID — the property the result cache keys on.
func FuzzBuildGraph(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"torus2d","side":20}`,
		`{"kind":"torus","dims":3,"side":5}`,
		`{"kind":"ring","nodes":100}`,
		`{"kind":"hypercube","bits":8}`,
		`{"kind":"complete","nodes":50}`,
		`{"kind":"regular","nodes":200,"degree":4,"seed":7}`,
		`{"kind":"ba","nodes":300,"degree":3,"seed":1}`,
		`{"kind":"er","nodes":256,"degree":6,"seed":2}`,
		`{"kind":"ws","nodes":128,"degree":4,"seed":3}`,
		`{"kind":"torus2d","side":-1}`,
		`{"kind":"er","nodes":10,"degree":11}`,
		`{"kind":"nope"}`,
		`{}`,
		`{"kind":"regular","nodes":5,"degree":3}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var gr graphRequest
		if err := json.Unmarshal(data, &gr); err != nil {
			return
		}
		if gr.Nodes > fuzzMaxNodes || gr.Side > fuzzMaxSide || gr.Dims > fuzzMaxDims ||
			gr.Bits > fuzzMaxBits || gr.Degree > fuzzMaxDegree {
			return
		}
		g, err := buildGraph(gr)
		if err != nil {
			if g != nil {
				t.Fatalf("buildGraph(%+v) returned both a graph and error %v", gr, err)
			}
			return
		}
		if g == nil {
			t.Fatalf("buildGraph(%+v) returned nil graph without error", gr)
		}
		n := g.NumNodes()
		if n < 1 {
			t.Fatalf("buildGraph(%+v) built an empty graph (n=%d)", gr, n)
		}
		d := g.Degree(0)
		if d < 0 {
			t.Fatalf("buildGraph(%+v): negative degree %d at node 0", gr, d)
		}
		for i := 0; i < d; i++ {
			if v := g.Neighbor(0, i); v < 0 || v >= n {
				t.Fatalf("buildGraph(%+v): neighbor %d of node 0 out of range: %d (n=%d)", gr, i, v, n)
			}
		}
		again, err := buildGraph(gr)
		if err != nil {
			t.Fatalf("buildGraph(%+v) failed on a rebuild: %v", gr, err)
		}
		id, ok := g.(antdensity.GraphIdentity)
		if !ok {
			t.Fatalf("buildGraph(%+v) built a %T, which has no GraphID", gr, g)
		}
		if a, b := id.GraphID(), again.(antdensity.GraphIdentity).GraphID(); a != b {
			t.Fatalf("buildGraph(%+v) built two graphs: GraphID %s, then %s", gr, a, b)
		}
	})
}

// FuzzParseAdversaryFlag drives the CLI's -adversary grammar
// (kind:fraction[:param][:seed]) through its translation to the Spec
// layer, checking that the CLI accepts exactly what adversary.ParseFlag
// accepts, carries every parsed field over unchanged, and hands a
// density Spec a block its validation accepts for every kind but
// "lie", which needs a property run.
func FuzzParseAdversaryFlag(f *testing.F) {
	for _, seed := range []string{
		"", "inflate:0.2", "deflate:0.5:3", "random:0.3:10:7",
		"stall:0.1", "crash:0.1:500", "crash:0.1:0:9",
		"lie:0.5", "inflate:1.5", "inflate:NaN", "inflate:0.2:-1",
		"inflate", "a:b:c:d:e", "crash:0.1:2.5", "inflate:0.2:5:-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, val string) {
		adv, err := parseAdversaryFlag(val)
		if val == "" {
			if adv != nil || err != nil {
				t.Fatalf("empty flag must be a silent no-op, got adv=%v err=%v", adv, err)
			}
			return
		}
		cfg, perr := adversary.ParseFlag(val)
		if (err == nil) != (perr == nil) {
			t.Fatalf("parseAdversaryFlag(%q) error %v, but ParseFlag error %v", val, err, perr)
		}
		if err != nil {
			if adv != nil {
				t.Fatalf("parseAdversaryFlag(%q) returned both a block and error %v", val, err)
			}
			return
		}
		want := antdensity.AdversarySpec{Kind: cfg.Kind.String(), Fraction: cfg.Fraction, Param: cfg.Param, Seed: cfg.Seed}
		if adv == nil || *adv != want {
			t.Fatalf("parseAdversaryFlag(%q) = %+v, want %+v", val, adv, want)
		}
		spec := antdensity.DensitySpec(antdensity.WithTorus2D(20), antdensity.WithAgents(41),
			antdensity.WithRounds(1000), antdensity.WithSeed(1))
		spec.Adversary = adv
		if verr := spec.Validate(); (verr == nil) != (cfg.Kind != adversary.Lie) {
			t.Fatalf("density Spec with -adversary %q: Validate() = %v", val, verr)
		}
	})
}
