package engine_test

import (
	"fmt"
	"math"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
)

// Full-matrix integration: every algorithm × both engines × {native,
// plugged} must agree with the template oracle. This is the test that
// catches cross-cutting regressions in any layer of the stack.
func TestFullMatrixAgainstOracle(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 250, NumEdges: 2000, A: 0.57, B: 0.19, C: 0.19,
		Communities: 4, CrossFraction: 0.05, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs := algos.DefaultSources(g.NumVertices())
	builders := []func() template.Algorithm{
		func() template.Algorithm { return algos.NewPageRank() },
		func() template.Algorithm { return algos.NewSSSPBF(srcs) },
		func() template.Algorithm { return algos.NewCC() },
		func() template.Algorithm { return algos.NewKCore(2) },
		func() template.Algorithm { return algos.NewKHopBFS(srcs[:2], 0) },
	}
	engines := []struct {
		name string
		run  func(engine.Config) (*engine.Result, error)
	}{
		{"GraphX", graphx.Run},
		{"PowerGraph", powergraph.Run},
	}
	for _, mk := range builders {
		oracle, _ := template.Drive(g, mk(), nil)
		name := mk().Name()
		for _, eng := range engines {
			for _, plugged := range []bool{false, true} {
				var plug []gxplug.Options
				label := fmt.Sprintf("%s/%s/native", name, eng.name)
				if plugged {
					plug = cpuPlug()
					label = fmt.Sprintf("%s/%s/plugged", name, eng.name)
				}
				t.Run(label, func(t *testing.T) {
					res, err := eng.run(engine.Config{
						Nodes: 3, Graph: g, Alg: mk(), Plug: plug,
					})
					if err != nil {
						t.Fatal(err)
					}
					if d := maxDiff(res.Attrs, oracle); d > 1e-9 {
						t.Fatalf("diverges from oracle by %v", d)
					}
				})
			}
		}
	}
}

// The engines must be deterministic: two identical runs give identical
// virtual times and identical results.
func TestEngineDeterminism(t *testing.T) {
	g := testGraph(t)
	alg := func() template.Algorithm { return algos.NewSSSPBF(algos.DefaultSources(g.NumVertices())) }
	run := func() *engine.Result {
		res, err := powergraph.Run(engine.Config{
			Nodes: 3, Graph: g, Alg: alg(), Plug: cpuPlug(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time {
		t.Fatalf("virtual times differ across identical runs: %v vs %v", a.Time, b.Time)
	}
	if a.Iterations != b.Iterations || a.SkippedSyncs != b.SkippedSyncs {
		t.Fatalf("iteration accounting differs: %+v vs %+v", a, b)
	}
	if d := maxDiff(a.Attrs, b.Attrs); d != 0 {
		t.Fatalf("results differ by %v across identical runs", d)
	}
}

// Node-count sweep: results are invariant to the cluster size.
func TestResultsInvariantToNodeCount(t *testing.T) {
	g := testGraph(t)
	var ref []float64
	for _, nodes := range []int{1, 2, 5, 9} {
		res, err := graphx.Run(engine.Config{
			Nodes: nodes, Graph: g, Alg: algos.NewCC(), Plug: cpuPlug(),
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if ref == nil {
			ref = res.Attrs
			continue
		}
		if d := maxDiff(res.Attrs, ref); d != 0 {
			t.Fatalf("nodes=%d: results differ by %v", nodes, d)
		}
	}
}

// Graphs with isolated vertices, self-loops and parallel edges flow
// through the full stack.
func TestEngineDegenerateGraphs(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{
		{Src: 0, Dst: 0, Weight: 1}, // self loop
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 1, Dst: 2, Weight: 2}, // parallel edge
		// 3,4,5 isolated
	})
	for _, run := range []func(engine.Config) (*engine.Result, error){graphx.Run, powergraph.Run} {
		res, err := run(engine.Config{Nodes: 2, Graph: g, Alg: algos.NewPageRank(), Plug: cpuPlug()})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := algos.RefPageRank(g, 0.85, 1e-9, 0)
		if d := maxDiff(res.Attrs, want); d > 1e-9 {
			t.Fatalf("degenerate graph diverges by %v", d)
		}
	}
}

// Zero-edge graphs terminate immediately for frontier algorithms.
func TestEngineEdgelessGraph(t *testing.T) {
	g := graph.MustFromEdges(4, nil)
	res, err := powergraph.Run(engine.Config{
		Nodes: 2, Graph: g, Alg: algos.NewSSSPBF([]graph.VertexID{0}), Plug: cpuPlug(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Fatalf("edgeless SSSP ran %d iterations", res.Iterations)
	}
	if res.Attrs[0] != 0 {
		t.Fatalf("source distance %v", res.Attrs[0])
	}
}

// A negative cycle reachable from a source has no shortest paths, and
// Bellman–Ford would relax around it forever. SSSP-BF stops changing at
// iteration V, so every engine × {native, plugged} run ends within V+1
// supersteps, well inside MaxIter, at bit-identical distances.
func TestSSSPNegativeCycleStops(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: -2},
		{Src: 2, Dst: 1, Weight: -2}, // the cycle 1→2→1 weighs −4
		{Src: 2, Dst: 3, Weight: 1},
	})
	var ref []float64
	for _, run := range []func(engine.Config) (*engine.Result, error){graphx.Run, powergraph.Run} {
		for _, plug := range [][]gxplug.Options{nil, cpuPlug()} {
			res, err := run(engine.Config{
				Nodes: 2, Graph: g, Alg: algos.NewSSSPBF(algos.DefaultSources(4)), Plug: plug, MaxIter: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations > g.NumVertices()+1 {
				t.Fatalf("plugged %v: %d supersteps on %d vertices", plug != nil, res.Iterations, g.NumVertices())
			}
			if ref == nil {
				ref = res.Attrs
			}
			for i := range ref {
				if math.Float64bits(res.Attrs[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("plugged %v: attrs[%d] = %v, want %v", plug != nil, i, res.Attrs[i], ref[i])
				}
			}
		}
	}
}
