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

func tracesEqual(a, b *trace) bool {
	if len(a.attrs) != len(b.attrs) || len(a.changed) != len(b.changed) {
		return false
	}
	for i := range a.attrs {
		if !attrsBitEqual(a.attrs[i], b.attrs[i]) {
			return false
		}
		for v := range a.changed[i] {
			if a.changed[i][v] != b.changed[i][v] {
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

// runBoundary executes one boundary the way runStream wires it —
// recording its trajectory, and replaying prev over the dirty seed when
// one is given — and hands the recorded trajectory back.
func runBoundary(t *testing.T, cfg Config, prev *trace, dirty []bool) (*Result, *trace) {
	t.Helper()
	p, err := resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(p)
	r.traceRec = &trace{}
	if dirty != nil {
		r.inc = newIncState(prev, dirty, cfg.Nodes)
	}
	res, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	return res, r.traceRec
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
					cfg := Config{Spec: spec, Nodes: nodes, Graph: g0, Alg: alg}
					// The stream through Run: what the boundary-by-boundary
					// chain below must agree with (scratch mode is held to
					// it in turn by gx's TestDynamicConformance).
					cfg.Stream = &BatchStream{Batches: batches}
					lastBatch := -1
					cfg.Observer = func(st SuperstepInfo) {
						if st.Batch < lastBatch || st.Batch > lastBatch+1 {
							t.Errorf("superstep stamped batch %d after %d", st.Batch, lastBatch)
						}
						lastBatch = st.Batch
					}
					incRun, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if lastBatch != len(batches) {
						t.Errorf("last superstep stamped batch %d, want %d", lastBatch, len(batches))
					}
					if len(incRun.Batches) != len(batches)+1 {
						t.Fatalf("Run reports %d boundaries, want %d", len(incRun.Batches), len(batches)+1)
					}
					cfg.Stream, cfg.Observer = nil, nil

					// Seed boundary on the initial version records the trace.
					_, prevTrace := runBoundary(t, cfg, nil, nil)
					prevG := g0
					for bi, b := range batches {
						nextG, err := prevG.ApplyBatch(b)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Graph = nextG
						scratch, scratchTrace := runBoundary(t, cfg, nil, nil)
						dirty := DirtySeed(prevG, nextG, spec.Partition(prevG, nodes), spec.Partition(nextG, nodes))
						inc, incTrace := runBoundary(t, cfg, prevTrace, dirty)
						if !attrsBitEqual(inc.Attrs, scratch.Attrs) {
							t.Fatalf("batch %d: incremental attrs diverge from scratch", bi)
						}
						if inc.Iterations != scratch.Iterations {
							t.Fatalf("batch %d: incremental ran %d supersteps, scratch %d",
								bi, inc.Iterations, scratch.Iterations)
						}
						if !tracesEqual(incTrace, scratchTrace) {
							t.Fatalf("batch %d: incremental trajectory diverges from scratch", bi)
						}
						if inc.Time > scratch.Time {
							t.Fatalf("batch %d: incremental makespan %v exceeds scratch %v",
								bi, inc.Time, scratch.Time)
						}
						want := BatchResult{
							Seq: bi + 1, Time: inc.Time, ApplyTime: batchApplyCost(len(b.Adds), len(b.Removes)),
							Iterations: inc.Iterations, Adds: len(b.Adds), Removes: len(b.Removes),
							AttrsDigest: AttrsDigest(inc.Attrs),
						}
						for _, d := range dirty {
							if d {
								want.Dirty++
							}
						}
						if got := incRun.Batches[bi+1]; got != want {
							t.Fatalf("batch %d: Run reports %+v, the boundary chain %+v", bi, got, want)
						}
						// Chain off the incremental run's own trace: boundary
						// k+1 replays k's recording, as runStream does.
						prevG, prevTrace = nextG, incTrace
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
	cfg := Config{Spec: bspTestSpec(), Nodes: 2, Graph: g, Alg: algos.NewPageRank()}
	scratch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, _ := runBoundary(t, cfg, nil, make([]bool, g.NumVertices()))
	if !attrsBitEqual(inc.Attrs, scratch.Attrs) || inc.Iterations != scratch.Iterations {
		t.Fatal("nil-trace incremental run diverges from scratch")
	}
}

// A trace shorter than the new run's superstep count must degrade to
// full recomputation once exhausted, not fail or diverge.
func TestIncrementalShortTrace(t *testing.T) {
	g := incTestGraph(t)
	cfg := Config{Spec: gasTestSpec(), Nodes: 2, Graph: g, Alg: algos.NewCC()}
	full, fullTrace := runBoundary(t, cfg, nil, nil)
	short := &trace{attrs: fullTrace.attrs[:1], changed: fullTrace.changed[:1]}
	inc, _ := runBoundary(t, cfg, short, make([]bool, g.NumVertices()))
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
