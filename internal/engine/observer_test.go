package engine_test

import (
	"slices"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/gxplug"
)

// TestObserverReportsEverySuperstep drives both computation models and
// checks the observer contract: one report per iteration, in order, with
// consistent traffic and time accounting.
func TestObserverReportsEverySuperstep(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 2000, NumEdges: 12000, A: 0.57, B: 0.19, C: 0.19, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(engine.Config) (*engine.Result, error)
	}{
		{"BSP", graphx.Run},
		{"GAS", powergraph.Run},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var steps []engine.SuperstepInfo
			res, err := tc.run(engine.Config{
				Nodes: 4, Graph: g, Alg: algos.NewPageRank(), MaxIter: 6,
				Observer: func(si engine.SuperstepInfo) { steps = append(steps, si) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(steps) != res.Iterations {
				t.Fatalf("%d reports for %d iterations", len(steps), res.Iterations)
			}
			var prev engine.SuperstepInfo
			var msgs int64
			for i, si := range steps {
				if si.Iteration != i {
					t.Errorf("report %d carries iteration %d", i, si.Iteration)
				}
				if si.Makespan < prev.Makespan {
					t.Errorf("makespan shrank at superstep %d", i)
				}
				if si.UpperTime < prev.UpperTime || si.MiddlewareTime < prev.MiddlewareTime {
					t.Errorf("bucket time shrank at superstep %d", i)
				}
				msgs += si.Messages
				prev = si
			}
			// PageRank is all-active: the first report must see every vertex.
			if steps[0].Frontier != g.NumVertices() {
				t.Errorf("initial frontier %d, want %d", steps[0].Frontier, g.NumVertices())
			}
			if msgs == 0 {
				t.Error("4-node PageRank produced no observed cross-node messages")
			}
			// The final cumulative bucket split must match the result's.
			last := steps[len(steps)-1]
			if last.UpperTime != res.UpperTime || last.MiddlewareTime != res.MiddlewareTime {
				t.Errorf("final bucket split %v/%v differs from result %v/%v",
					last.UpperTime, last.MiddlewareTime, res.UpperTime, res.MiddlewareTime)
			}
			if last.Makespan != res.Time {
				t.Errorf("final makespan %v differs from result time %v", last.Makespan, res.Time)
			}
		})
	}
}

// TestObserverIdenticalToNil verifies an observer is purely passive:
// attaching one changes neither results, virtual time nor the agents'
// counts, on the native and the plugged path.
func TestObserverIdenticalToNil(t *testing.T) {
	g, err := gen.Load(gen.WRN, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, plug := range [][]gxplug.Options{nil, cpuPlug()} {
		mk := func(obs engine.Observer) *engine.Result {
			res, err := powergraph.Run(engine.Config{
				Nodes: 2, Graph: g,
				Alg:      algos.NewSSSPBF(algos.DefaultSources(g.NumVertices())),
				Plug:     plug,
				Observer: obs,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		bare := mk(nil)
		seen := 0
		observed := mk(func(engine.SuperstepInfo) { seen++ })
		if seen != observed.Iterations {
			t.Fatalf("observer fired %d times over %d iterations", seen, observed.Iterations)
		}
		if bare.Time != observed.Time || bare.Iterations != observed.Iterations ||
			bare.SkippedSyncs != observed.SkippedSyncs {
			t.Fatalf("observer perturbed the run: %+v vs %+v", bare.Time, observed.Time)
		}
		for i := range bare.Attrs {
			if bare.Attrs[i] != observed.Attrs[i] {
				t.Fatalf("observer perturbed attrs at %d", i)
			}
		}
		if !slices.Equal(bare.AgentStats, observed.AgentStats) {
			t.Fatalf("observer changed AgentStats:\n%+v\n%+v", bare.AgentStats, observed.AgentStats)
		}
	}
}
