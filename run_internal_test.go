package antdensity

import (
	"context"
	"slices"
	"testing"

	"antdensity/internal/sim"
)

// TestObserveMeasuresEachRoundOnce pins that a run measures every
// published round once: the stride observer publishes every
// SnapshotEvery-th round and the horizon, and only an early stop or a
// cancellation between strides makes the final round publish once
// more after the loop.
func TestObserveMeasuresEachRoundOnce(t *testing.T) {
	for _, tc := range []struct {
		name             string
		every, rounds    int
		stopAt, cancelAt int // 0: never
		want             []int
	}{
		{name: "snapshot every = rounds", every: 50, rounds: 50, want: []int{50}},
		{name: "every round", every: 1, rounds: 4, want: []int{1, 2, 3, 4}},
		{name: "horizon between strides", every: 20, rounds: 50, want: []int{20, 40, 50}},
		{name: "early stop between strides", every: 5, rounds: 50, stopAt: 7, want: []int{5, 7}},
		{name: "early stop on a stride", every: 5, rounds: 50, stopAt: 10, want: []int{5, 10}},
		{name: "cancel between strides", every: 5, rounds: 50, cancelAt: 8, want: []int{5, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := DensitySpec(WithTorus2D(8), WithAgents(10), WithSeed(1),
				WithRounds(tc.rounds), WithSnapshotEvery(tc.every)).NewRun()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			est := sim.ObserverFunc(func(rd *sim.Round) sim.Signal {
				if rd.Index() == tc.stopAt {
					for i := 0; i < rd.NumAgents(); i++ {
						rd.Deactivate(i)
					}
				}
				if rd.Index() == tc.cancelAt {
					cancel()
				}
				return sim.Continue
			})
			var measured []int
			rounds, _ := r.observe(ctx, tc.rounds, est, func(round int, _ *Snapshot) {
				measured = append(measured, round)
			})
			if !slices.Equal(measured, tc.want) {
				t.Errorf("measured rounds %v, want %v", measured, tc.want)
			}
			if got := r.Snapshot().Round; got != rounds {
				t.Errorf("published round %d, executed %d", got, rounds)
			}
		})
	}
}
