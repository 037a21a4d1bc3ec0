// Quickstart: estimate population density on a two-dimensional torus
// with the paper's Algorithm 1, through the v2 Spec/Run API.
//
// A colony of 2001 agents random-walks on a 200x200 torus (density
// d = 2000/40000 = 0.05). Each agent counts collisions for t rounds
// and reports c/t. The run is declared as a DensitySpec and executed
// as a Run: while it steps, the main goroutine reads live anytime
// snapshots (the estimate improves every round — the paper's whole
// point); at the end it compares the agents' estimates with the true
// density and with Theorem 1's predicted accuracy.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"antdensity"
	"antdensity/internal/core"
	"antdensity/internal/stats"
)

func main() {
	const (
		side   = 200
		agents = 2001
		rounds = 2000
		delta  = 0.05
	)

	// v2: declare the run, start it under a cancellable context, and
	// watch it mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run, err := antdensity.DensitySpec(
		antdensity.WithTorus2D(side),
		antdensity.WithAgents(agents),
		antdensity.WithSeed(42),
		antdensity.WithRounds(rounds),
	).Start(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Live anytime view: snapshots are readable from any goroutine
	// without blocking the stepping loop.
	for snap := run.Snapshot(); !snap.State.Terminal(); snap = run.Snapshot() {
		if snap.Round > 0 {
			fmt.Printf("round %4d/%d (%.0f%%): mean estimate %.5f\n",
				snap.Round, snap.MaxRounds, 100*snap.Progress, snap.Mean)
		}
		time.Sleep(30 * time.Millisecond)
	}

	out, err := run.Output()
	if err != nil {
		log.Fatal(err)
	}
	estimates := out.Estimates

	const d = float64(agents-1) / (side * side) // true density
	summary := stats.Summarize(estimates)
	fmt.Printf("\ntrue density d:        %.5f\n", d)
	fmt.Printf("rounds t:              %d\n", rounds)
	fmt.Printf("mean agent estimate:   %.5f\n", summary.Mean)
	fmt.Printf("median agent estimate: %.5f\n", summary.Median)
	fmt.Printf("estimate std:          %.5f\n", summary.StdDev)

	// Theorem 1: with probability 1-delta each agent is within
	// (1 +- eps) of d for eps ~ sqrt(log(1/delta)/(t d)) log 2t.
	eps := core.TheoremOneEpsilon(rounds, d, delta, 0.35)
	fails := stats.FailureRate(estimates, d, eps)
	fmt.Printf("Theorem 1 eps:         %.3f (c1 = 0.35, delta = %.2f)\n", eps, delta)
	fmt.Printf("agents outside band:   %.1f%% (paper predicts <= %.0f%%)\n", 100*fails, 100*delta)
}
