package main

// Graph recipes: the one mapping from a named graph family and its
// parameters to a Graph, shared by serve's POST /v1/runs payload and
// the CLI's netsize and walk subcommands. A recipe only builds a
// graph; the graph names itself (GraphID), so the result cache keys on
// what was built, not on the recipe.

import (
	"fmt"

	"antdensity"
	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
)

// graphRequest names a topology recipe. Kinds: torus2d (side), torus
// (dims, side), ring (nodes), hypercube (bits), complete (nodes),
// regular (nodes, degree, seed), ba (nodes, degree, seed), er (nodes,
// degree, seed), ws (nodes, degree, seed).
type graphRequest struct {
	Kind   string `json:"kind"`
	Side   int64  `json:"side,omitempty"`
	Dims   int    `json:"dims,omitempty"`
	Nodes  int64  `json:"nodes,omitempty"`
	Bits   int    `json:"bits,omitempty"`
	Degree int    `json:"degree,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
}

// asGraph widens a concrete topology constructor result to the Graph
// interface without leaking a typed-nil on error.
func asGraph[G antdensity.Graph](g G, err error) (antdensity.Graph, error) {
	if err != nil {
		return nil, err
	}
	return g, nil
}

// needNodes validates the shared node-count parameter of the sampled
// recipes before any arithmetic touches it — degree/nodes with zero
// nodes is NaN, not an error, so it must never get that far.
func needNodes(gr graphRequest) error {
	if gr.Nodes < 1 {
		return fmt.Errorf("graph %q needs nodes >= 1, got %d", gr.Kind, gr.Nodes)
	}
	return nil
}

// buildGraph materializes a graph recipe.
func buildGraph(gr graphRequest) (antdensity.Graph, error) {
	switch gr.Kind {
	case "torus2d":
		return asGraph(antdensity.NewTorus2D(gr.Side))
	case "torus":
		return asGraph(antdensity.NewTorus(gr.Dims, gr.Side))
	case "ring":
		return asGraph(antdensity.NewRing(gr.Nodes))
	case "hypercube":
		return asGraph(antdensity.NewHypercube(gr.Bits))
	case "complete":
		return asGraph(antdensity.NewComplete(gr.Nodes))
	case "regular":
		if err := needNodes(gr); err != nil {
			return nil, err
		}
		return asGraph(antdensity.NewRandomRegular(gr.Nodes, gr.Degree, gr.Seed))
	case "ba":
		if err := needNodes(gr); err != nil {
			return nil, err
		}
		return asGraph(socialnet.BarabasiAlbert(gr.Nodes, gr.Degree, rng.New(gr.Seed)))
	case "er":
		if err := needNodes(gr); err != nil {
			return nil, err
		}
		if gr.Degree < 1 || int64(gr.Degree) > gr.Nodes {
			return nil, fmt.Errorf("graph \"er\" needs degree in [1, nodes], got degree=%d nodes=%d", gr.Degree, gr.Nodes)
		}
		adj, err := socialnet.ErdosRenyi(gr.Nodes, float64(gr.Degree)/float64(gr.Nodes), rng.New(gr.Seed))
		if err != nil {
			return nil, err
		}
		return socialnet.Connected(adj), nil
	case "ws":
		if err := needNodes(gr); err != nil {
			return nil, err
		}
		return asGraph(socialnet.WattsStrogatz(gr.Nodes, gr.Degree, 0.1, rng.New(gr.Seed)))
	default:
		return nil, fmt.Errorf("unknown graph kind %q (valid: torus2d, torus, ring, hypercube, complete, regular, ba, er, ws)", gr.Kind)
	}
}
