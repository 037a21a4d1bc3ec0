package antdensity_test

import (
	"testing"

	"antdensity"
	"antdensity/internal/topology"
)

func fingerprintOK(t *testing.T, s *antdensity.Spec) string {
	t.Helper()
	fp, ok := s.Fingerprint()
	if !ok || fp == "" {
		t.Fatalf("Fingerprint() = %q, %v; want fingerprintable", fp, ok)
	}
	return fp
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	base := func() *antdensity.Spec { return quickSpec(42) }
	fp := fingerprintOK(t, base())
	if fp2 := fingerprintOK(t, base()); fp2 != fp {
		t.Fatalf("identical specs disagree: %s vs %s", fp, fp2)
	}

	// Every result-determining change must move the fingerprint.
	mutations := map[string]func(*antdensity.Spec){
		"seed":       func(s *antdensity.Spec) { s.Seed = 43 },
		"rounds":     func(s *antdensity.Spec) { s.Rounds = 201 },
		"agents":     func(s *antdensity.Spec) { s.NumAgents = 22 },
		"kind":       func(s *antdensity.Spec) { s.Kind = antdensity.KindIndependent },
		"tagged":     func(s *antdensity.Spec) { s.TaggedCount = 3 },
		"taggedonly": func(s *antdensity.Spec) { s.TaggedOnly = true },
		"noise":      func(s *antdensity.Spec) { s.Noise = &antdensity.NoiseSpec{DetectProb: 0.9} },
		"graph":      func(s *antdensity.Spec) { s.Graph = topology.MustTorus(2, 21) },
		"delta":      func(s *antdensity.Spec) { s.Delta = 0.01 },
	}
	for name, mutate := range mutations {
		s := base()
		mutate(s)
		if got := fingerprintOK(t, s); got == fp {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}

	// SnapshotEvery is observational: same fingerprint.
	s := base()
	s.SnapshotEvery = 50
	if got := fingerprintOK(t, s); got != fp {
		t.Errorf("SnapshotEvery changed the fingerprint: %s vs %s", got, fp)
	}

	// Shards is execution layout only (results are shard-invariant):
	// same fingerprint, so sharded and flat submissions dedup together.
	for _, k := range []int{1, 2, 7} {
		s = base()
		s.Shards = k
		if got := fingerprintOK(t, s); got != fp {
			t.Errorf("Shards = %d changed the fingerprint: %s vs %s", k, got, fp)
		}
	}

	// Explicit Delta equal to the default hashes like the default.
	s = base()
	s.Delta = 0.05
	if got := fingerprintOK(t, s); got != fp {
		t.Errorf("explicit default Delta changed the fingerprint")
	}
}

func TestFingerprintTaggedAgentsCanonical(t *testing.T) {
	mk := func(ids ...int) *antdensity.Spec {
		s := quickSpec(1)
		s.TaggedAgents = ids
		return s
	}
	a := fingerprintOK(t, mk(3, 1, 2))
	b := fingerprintOK(t, mk(1, 2, 3, 3))
	if a != b {
		t.Fatalf("order/duplicates changed the fingerprint: %s vs %s", a, b)
	}
	if c := fingerprintOK(t, mk(1, 2)); c == a {
		t.Fatalf("different tag set hashed identically")
	}
}

func TestFingerprintUnfingerprintable(t *testing.T) {
	// Pre-built World: arbitrary state, not content-addressable.
	w, err := antdensity.NewWorld(antdensity.WorldConfig{
		Graph: topology.MustTorus(2, 20), NumAgents: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := antdensity.DensitySpec(antdensity.WithWorld(w), antdensity.WithRounds(10))
	if _, ok := s.Fingerprint(); ok {
		t.Error("World-backed spec should not be fingerprintable")
	}

	// A Graph type from outside the module carries no identity: it is
	// fingerprintable only once a GraphKey names it.
	s = antdensity.DensitySpec(
		antdensity.WithGraph(foreignGraph{topology.MustTorus(2, 20)}),
		antdensity.WithAgents(5),
		antdensity.WithRounds(10),
	)
	if _, ok := s.Fingerprint(); ok {
		t.Error("foreign-graph spec without GraphKey should not be fingerprintable")
	}
	s.GraphKey = "foreign:torus2d-20"
	fingerprintOK(t, s)
}

// foreignGraph stands for a Graph type from outside the module: it
// embeds only the Graph interface, so no GraphID is promoted.
type foreignGraph struct{ antdensity.Graph }

// TestFingerprintContentAddressed checks that an adjacency graph is
// identified by what was built, not by a key a caller asserts.
func TestFingerprintContentAddressed(t *testing.T) {
	spec := func(g antdensity.Graph, key string) *antdensity.Spec {
		s := antdensity.DensitySpec(antdensity.WithGraph(g), antdensity.WithAgents(5), antdensity.WithRounds(10))
		s.GraphKey = key
		return s
	}
	regular := func(seed uint64) antdensity.Graph {
		g, err := antdensity.NewRandomRegular(64, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	// One GraphKey on two different graphs cannot make them one.
	const key = "regular:nodes=64,degree=4,seed=9"
	if a, b := fingerprintOK(t, spec(regular(9), key)), fingerprintOK(t, spec(regular(10), key)); a == b {
		t.Errorf("two graphs under one GraphKey share fingerprint %s", a)
	}

	fp := fingerprintOK(t, spec(regular(9), ""))
	if again := fingerprintOK(t, spec(regular(9), "")); again != fp {
		t.Errorf("one recipe built twice: %s vs %s", fp, again)
	}
	if other := fingerprintOK(t, spec(regular(10), "")); other == fp {
		t.Errorf("another seed shares fingerprint %s", fp)
	}
	if keyed := fingerprintOK(t, spec(regular(9), key)); keyed != fp {
		t.Errorf("a GraphKey moved an adjacency fingerprint: %s vs %s", keyed, fp)
	}
	torus := topology.MustTorus(2, 20)
	if keyed, plain := fingerprintOK(t, spec(torus, "stray")), fingerprintOK(t, spec(torus, "")); keyed != plain {
		t.Errorf("a stray GraphKey moved a torus fingerprint: %s vs %s", keyed, plain)
	}
}

func TestGraphIDs(t *testing.T) {
	for _, tc := range []struct {
		g    antdensity.Graph
		want string
	}{
		{topology.MustTorus(2, 20), "torus:dims=2,side=20"},
		{topology.MustHypercube(5), "hypercube:bits=5"},
		{topology.MustComplete(9), "complete:nodes=9"},
		{topology.MustAdj(3, []topology.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}), "adj:sha256=e75af630cd179ef448a9e68a130751e5a5774821962831c2b002a6882e337b53"},
	} {
		id, ok := tc.g.(antdensity.GraphIdentity)
		if !ok {
			t.Fatalf("%T does not implement GraphIdentity", tc.g)
		}
		if got := id.GraphID(); got != tc.want {
			t.Errorf("GraphID(%T) = %q, want %q", tc.g, got, tc.want)
		}
	}
}

// TestFingerprintPinned pins literal digests for Specs on the
// arithmetic topologies, whose identity is intrinsic: a change to how
// Fingerprint or GraphID renders them would orphan every journaled
// result and cache entry keyed on the old digest.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *antdensity.Spec
		want string
	}{
		{"torus2d density", antdensity.DensitySpec(antdensity.WithTorus2D(20), antdensity.WithAgents(21),
			antdensity.WithRounds(100), antdensity.WithSeed(11)),
			"3cee536af2f8d5386b8adbfa2a73ea6496db7d4c561342e359dd696c9b881d30"},
		{"torus3d quorum", antdensity.QuorumSpec(0.1, antdensity.WithGraph(topology.MustTorus(3, 9)),
			antdensity.WithAgents(60), antdensity.WithRounds(150), antdensity.WithSeed(3)),
			"8177d85a5a15cc859df8bd5465f7a77c5daa766c19c014b9b6587b66b960363d"},
		{"hypercube density", antdensity.DensitySpec(antdensity.WithGraph(topology.MustHypercube(10)),
			antdensity.WithAgents(100), antdensity.WithRounds(200), antdensity.WithSeed(5)),
			"369997dcb2d33637c1e93bea41d50c85326797ca96cee887aedea599752e3420"},
		{"ring density", antdensity.DensitySpec(antdensity.WithGraph(topology.MustTorus(1, 500)),
			antdensity.WithAgents(50), antdensity.WithRounds(300), antdensity.WithSeed(7)),
			"3f2cf09f6e125ca1182189e8da81b5fbeb363862a71dd2996e5d112262eaf079"},
		{"complete netsize", antdensity.NetworkSizeSpec(antdensity.WithGraph(topology.MustComplete(1000)),
			antdensity.WithWalkers(40), antdensity.WithRounds(100), antdensity.WithSeed(9)),
			"ba8b1e40df99751b708e48d71f1af4eab3d3bfb6990ef8a6ac860d276d9a119e"},
	} {
		if got := fingerprintOK(t, tc.spec); got != tc.want {
			t.Errorf("%s: Fingerprint() = %s, want %s", tc.name, got, tc.want)
		}
	}
}
