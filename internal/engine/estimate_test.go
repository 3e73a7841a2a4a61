package engine_test

import (
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
)

func estimateConfig(t *testing.T, spec engine.Spec) engine.Config {
	t.Helper()
	return engine.Config{
		Spec:  spec,
		Nodes: 4,
		Graph: testGraph(t),
		Alg:   algos.NewPageRank(),
		// PageRank's own cap is 20; tighten it so the prediction and the
		// run agree on the iteration count.
		MaxIter: 10,
	}
}

// TestEstimateDeterministic: the same config always produces the same
// estimate — the planner's ordering must be reproducible.
func TestEstimateDeterministic(t *testing.T) {
	cfg := estimateConfig(t, powergraph.Spec())
	a, err := engine.EstimateCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.EstimateCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("estimate not deterministic: %+v vs %+v", a, b)
	}
	if a.Supersteps != 10 || a.Entities <= 0 || a.Makespan <= 0 {
		t.Fatalf("degenerate estimate %+v", a)
	}
}

// TestEstimateTracksActual: the prediction lands within an order of
// magnitude of the live run's virtual makespan on both engines, native
// and plugged. The estimate is a scheduling signal, not a simulation,
// but a 10× band is what makes LPT ordering trustworthy.
func TestEstimateTracksActual(t *testing.T) {
	for _, spec := range bothSpecs() {
		for _, plugged := range []bool{false, true} {
			cfg := estimateConfig(t, spec)
			if plugged {
				cfg.Plug = gpuPlug()
			}
			est, err := engine.EstimateCost(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(est.Makespan) / float64(res.Time)
			if ratio < 0.1 || ratio > 10 {
				t.Errorf("%s plugged=%v: predicted %v vs actual %v (ratio %.2f)",
					spec.Name, plugged, est.Makespan, res.Time, ratio)
			}
		}
	}
}

// TestEstimateOrdersScenarios: a strictly bigger workload must predict a
// strictly bigger makespan — the property LPT scheduling relies on.
func TestEstimateOrdersScenarios(t *testing.T) {
	small := estimateConfig(t, powergraph.Spec())
	big := small
	bigGraph, err := gen.Load(gen.Orkut, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	big.Graph = bigGraph
	big.MaxIter = 20

	se, err := engine.EstimateCost(small)
	if err != nil {
		t.Fatal(err)
	}
	be, err := engine.EstimateCost(big)
	if err != nil {
		t.Fatal(err)
	}
	if be.Makespan <= se.Makespan || be.Entities <= se.Entities {
		t.Fatalf("bigger workload estimated cheaper: big %+v, small %+v", be, se)
	}
}

// TestEstimateSingleNodeNoNetwork: on one node there is no cross-node
// traffic and no barrier — the single-node-collectives-are-free
// invariant holds in the dry pass too, so the whole cost is compute.
func TestEstimateSingleNodeNoNetwork(t *testing.T) {
	cfg := estimateConfig(t, graphx.Spec())
	cfg.Nodes = 1

	one, err := engine.EstimateCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes = 4
	four, err := engine.EstimateCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four nodes split the compute but pay network costs the single node
	// does not; both must still be positive and finite.
	if one.Makespan <= 0 || four.Makespan <= 0 {
		t.Fatalf("non-positive estimates: one=%+v four=%+v", one, four)
	}
	if one.Entities != four.Entities {
		t.Fatalf("work volume depends on node count: %v vs %v", one.Entities, four.Entities)
	}
}

// TestEstimateConvergenceHeuristic: algorithms without an iteration cap
// get the log2(V) heuristic instead of zero or unbounded supersteps.
func TestEstimateConvergenceHeuristic(t *testing.T) {
	cfg := engine.Config{
		Spec:  powergraph.Spec(),
		Nodes: 2,
		Graph: testGraph(t),
		Alg:   algos.NewCC(), // runs to convergence, no MaxIterations hint
	}
	est, err := engine.EstimateCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 500 vertices: ceil(log2 500) = 9, plus the slack term.
	if est.Supersteps != 11 {
		t.Fatalf("convergence heuristic predicted %d supersteps, want 11", est.Supersteps)
	}
}

// TestEstimatePluggedDiffersFromNative: the device model prices plugged
// and native executions differently (they charge different terms), and
// plugged estimates reflect accelerator throughput.
func TestEstimatePluggedDiffersFromNative(t *testing.T) {
	native := estimateConfig(t, graphx.Spec())
	plugged := native
	plugged.Plug = gpuPlug()

	ne, err := engine.EstimateCost(native)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := engine.EstimateCost(plugged)
	if err != nil {
		t.Fatal(err)
	}
	if ne.Makespan == pe.Makespan {
		t.Fatalf("plugged and native estimates identical: %v", ne.Makespan)
	}
}
