package engine

import (
	"math"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// The incremental contract, enforced at the engine layer: replaying the
// previous version's trace over an edge batch produces attributes,
// frontier evolution, and iteration counts bit-identical to a
// from-scratch run on the new graph, and never a larger makespan.

func attrsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func tracesEqual(a, b *Trace) bool {
	if a.Iters != b.Iters || a.NumV != b.NumV || a.AttrWidth != b.AttrWidth {
		return false
	}
	for i := 0; i < a.Iters; i++ {
		if !attrsBitEqual(a.Attrs[i], b.Attrs[i]) {
			return false
		}
		for v := range a.Changed[i] {
			if a.Changed[i][v] != b.Changed[i][v] {
				return false
			}
		}
	}
	return true
}

func incTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Load(gen.Orkut, 1200, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIncrementalMatchesScratch(t *testing.T) {
	g0 := incTestGraph(t)
	batches, err := gen.SynthesizeBatches(g0, gen.BatchesConfig{
		Batches: 3, Adds: 6, Removes: 3, Window: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	algs := map[string]template.Algorithm{
		"pagerank": algos.NewPageRank(),
		"cc":       algos.NewCC(),
	}
	for specName, spec := range map[string]Spec{"bsp": bspTestSpec(), "gas": gasTestSpec()} {
		for algName, alg := range algs {
			for _, nodes := range []int{1, 3} {
				t.Run(specName+"/"+algName, func(t *testing.T) {
					// Seed run on the initial version records the trace.
					seed, err := Run(Config{Spec: spec, Nodes: nodes, Graph: g0, Alg: alg, RecordTrace: true})
					if err != nil {
						t.Fatal(err)
					}
					prevG, prevTrace := g0, seed.Trace
					for bi, b := range batches {
						nextG, err := prevG.ApplyBatch(b)
						if err != nil {
							t.Fatal(err)
						}
						scratch, err := Run(Config{Spec: spec, Nodes: nodes, Graph: nextG, Alg: alg, RecordTrace: true})
						if err != nil {
							t.Fatal(err)
						}
						dirty := DirtySeed(prevG, nextG, spec.Partition(prevG, nodes), spec.Partition(nextG, nodes))
						inc, err := Run(Config{
							Spec: spec, Nodes: nodes, Graph: nextG, Alg: alg, RecordTrace: true,
							Incremental: &IncrementalRun{Trace: prevTrace, Dirty: dirty},
						})
						if err != nil {
							t.Fatal(err)
						}
						if !attrsBitEqual(inc.Attrs, scratch.Attrs) {
							t.Fatalf("batch %d: incremental attrs diverge from scratch", bi)
						}
						if inc.Iterations != scratch.Iterations {
							t.Fatalf("batch %d: incremental ran %d supersteps, scratch %d",
								bi, inc.Iterations, scratch.Iterations)
						}
						if !tracesEqual(inc.Trace, scratch.Trace) {
							t.Fatalf("batch %d: incremental trajectory diverges from scratch", bi)
						}
						if inc.Time > scratch.Time {
							t.Fatalf("batch %d: incremental makespan %v exceeds scratch %v",
								bi, inc.Time, scratch.Time)
						}
						// Chain off the incremental run's own trace: boundary
						// k+1 replays k's recording, as the serving path does.
						prevG, prevTrace = nextG, inc.Trace
					}
				})
			}
		}
	}
}

// A nil trace (or an exhausted one) degrades to computing everything —
// still bit-identical, by construction.
func TestIncrementalNilTrace(t *testing.T) {
	g := incTestGraph(t)
	spec := bspTestSpec()
	alg := algos.NewPageRank()
	scratch, err := Run(Config{Spec: spec, Nodes: 2, Graph: g, Alg: alg})
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, g.NumVertices())
	inc, err := Run(Config{
		Spec: spec, Nodes: 2, Graph: g, Alg: alg,
		Incremental: &IncrementalRun{Dirty: dirty},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !attrsBitEqual(inc.Attrs, scratch.Attrs) || inc.Iterations != scratch.Iterations {
		t.Fatal("nil-trace incremental run diverges from scratch")
	}
}

// A trace shorter than the new run's superstep count must degrade to
// full recomputation once exhausted, not fail or diverge.
func TestIncrementalShortTrace(t *testing.T) {
	g := incTestGraph(t)
	spec := gasTestSpec()
	alg := algos.NewCC()
	full, err := Run(Config{Spec: spec, Nodes: 2, Graph: g, Alg: alg, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	short := &Trace{
		AttrWidth: full.Trace.AttrWidth, NumV: full.Trace.NumV,
		Iters: 1, Attrs: full.Trace.Attrs[:1], Changed: full.Trace.Changed[:1],
	}
	inc, err := Run(Config{
		Spec: spec, Nodes: 2, Graph: g, Alg: alg,
		Incremental: &IncrementalRun{Trace: short, Dirty: make([]bool, g.NumVertices())},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !attrsBitEqual(inc.Attrs, full.Attrs) || inc.Iterations != full.Iterations {
		t.Fatal("short-trace incremental run diverges from scratch")
	}
}

func TestDirtySeed(t *testing.T) {
	// A 3-chain plus an isolated far pair: touching 0→1 must not dirty
	// the far pair under a stable partitioning.
	g0 := graph.MustFromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 4, Dst: 5, Weight: 1},
	})
	g1, err := g0.ApplyBatch(graph.EdgeBatch{Time: 1, Adds: []graph.Edge{{Src: 0, Dst: 2, Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	part := func(g *graph.Graph) *graph.Partitioning { return graph.EdgeCutByRange(g, 2) }
	dirty := DirtySeed(g0, g1, part(g0), part(g1))
	// 0 changed out-degree → dirty, and its new out-neighbours 1, 2 too;
	// 2 also gained an in-edge.
	for _, v := range []int{0, 1, 2} {
		if !dirty[v] {
			t.Errorf("vertex %d not dirty", v)
		}
	}
	for _, v := range []int{4, 5} {
		if dirty[v] {
			t.Errorf("untouched vertex %d dirty", v)
		}
	}

	// Vertex-count growth dirties everything.
	g2, err := g0.ApplyBatch(graph.EdgeBatch{Time: 1, Adds: []graph.Edge{{Src: 5, Dst: 6, Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	all := DirtySeed(g0, g2, part(g0), part(g2))
	for v, d := range all {
		if !d {
			t.Fatalf("vertex %d clean after vertex-count change", v)
		}
	}
}
