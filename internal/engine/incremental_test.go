package engine

import (
	"math"
	"runtime"
	"slices"
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
		var s dirtySeeder
		s.sign(p.part)
		r.inc = newIncState(prev, dirty, &s.sig, cfg.Nodes)
	}
	res, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	return res, r.traceRec
}

// hasUnsortedInList reports whether some vertex of g has an in-list out
// of source-major order.
func hasUnsortedInList(g *graph.Graph) bool {
	_, _, _, inOff, inSrc, _ := g.CSR()
	for v := 0; v < g.NumVertices(); v++ {
		if !slices.IsSorted(inSrc[inOff[v]:inOff[v+1]]) {
			return true
		}
	}
	return false
}

func TestIncrementalMatchesScratch(t *testing.T) {
	g0 := incTestGraph(t)
	// ApplyBatch lists every in-list source-major, and the dirty seed does
	// not compare in-list order: the matrix below covers that only if the
	// initial graph has in-lists the first batch re-sorts.
	if !hasUnsortedInList(g0) {
		t.Fatal("every in-list of the test graph is source-major; the first boundary re-sorts none")
	}
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

	// An in-list only re-sorted is clean. FromEdges lists vertex 3's
	// in-edges as written, (2, 1); ApplyBatch lists them source-major,
	// (1, 2), under a batch that touches neither 3 nor its neighbours and
	// keeps the edge count, so the range cut stays put. Partitions, and
	// with them the fold order, come from the out-CSR, which is unchanged
	// for 1, 2 and 3.
	h0 := graph.MustFromEdges(6, []graph.Edge{
		{Src: 2, Dst: 3, Weight: 1}, {Src: 1, Dst: 3, Weight: 2}, {Src: 4, Dst: 5, Weight: 1},
	})
	h1, err := h0.ApplyBatch(graph.EdgeBatch{Time: 1,
		Adds:    []graph.Edge{{Src: 5, Dst: 4, Weight: 1}},
		Removes: []graph.Edge{{Src: 4, Dst: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inList := func(g *graph.Graph) (srcs []graph.VertexID) {
		g.InEdges(3, func(src graph.VertexID, _ float64) { srcs = append(srcs, src) })
		return srcs
	}
	if a, b := inList(h0), inList(h1); !slices.Equal(a, []graph.VertexID{2, 1}) || !slices.Equal(b, []graph.VertexID{1, 2}) {
		t.Fatalf("vertex 3's in-list is %v, then %v; want it re-sorted from [2 1] to [1 2]", a, b)
	}
	resorted := DirtySeed(h0, h1, part(h0), part(h1))
	if resorted[3] {
		t.Error("vertex 3 dirty: its in-list was only re-sorted")
	}
	for _, v := range []int{4, 5} {
		if !resorted[v] {
			t.Errorf("vertex %d not dirty after its edge was reversed", v)
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

// shapedBatches returns three batches to follow batches on g0, each
// built against the version it applies to: one re-adds, with new weight
// bits, the edge it removes; one adds the same edge twice; one removes a
// vertex's last in-edge. None touches keep, an edge a later batch removes.
func shapedBatches(t *testing.T, g0 *graph.Graph, batches []graph.EdgeBatch, keep graph.Edge) []graph.EdgeBatch {
	t.Helper()
	g := g0
	apply := func(b graph.EdgeBatch) graph.EdgeBatch {
		ng, err := g.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		g = ng
		return b
	}
	for _, b := range batches {
		apply(b)
	}
	kept := func(src, dst graph.VertexID) bool { return src == keep.Src && dst == keep.Dst }
	// inEdge finds a vertex with in-degree deg (beyond the first few, so
	// the batches land mid-range) and its first in-edge.
	inEdge := func(deg int) graph.Edge {
		for v := graph.VertexID(g.NumVertices() / 3); int(v) < g.NumVertices(); v++ {
			if g.InDegree(v) != deg {
				continue
			}
			var e graph.Edge
			g.InEdges(v, func(src graph.VertexID, w float64) { e = graph.Edge{Src: src, Dst: v, Weight: w} })
			if !kept(e.Src, e.Dst) {
				return e
			}
		}
		t.Fatalf("no vertex of in-degree %d", deg)
		return graph.Edge{}
	}
	readd := inEdge(3)
	out := []graph.EdgeBatch{apply(graph.EdgeBatch{Time: 4,
		Adds:    []graph.Edge{{Src: readd.Src, Dst: readd.Dst, Weight: readd.Weight + 0.5}},
		Removes: []graph.Edge{{Src: readd.Src, Dst: readd.Dst}},
	})}
	twice := graph.Edge{Src: readd.Dst, Dst: readd.Src, Weight: 2}
	out = append(out, apply(graph.EdgeBatch{Time: 5, Adds: []graph.Edge{twice, twice}}))
	last := inEdge(1)
	out = append(out, apply(graph.EdgeBatch{Time: 6, Removes: []graph.Edge{{Src: last.Src, Dst: last.Dst}}}))
	if g.InDegree(last.Dst) != 0 {
		t.Fatalf("vertex %d kept an in-edge", last.Dst)
	}
	return out
}

// The seeder materializes one signature and streams the other against
// it; the oracle materializes both. They must agree vertex for vertex,
// under every partitioner an engine uses, for localized and for uniform
// churn — and a seeder carried down a stream (runStream's use: its
// signature buffer and cursors written over at every boundary, across a
// vertex-count change too) must agree exactly as the one-shot form does.
// Beside the synthesized batches the stream re-adds an edge in the batch
// that removes it, adds one edge twice and removes a vertex's last
// in-edge.
func TestDirtySeedMatchesOracle(t *testing.T) {
	g0 := incTestGraph(t)
	partitioners := map[string]func(*graph.Graph, int) *graph.Partitioning{
		"range":  func(g *graph.Graph, m int) *graph.Partitioning { return graph.EdgeCutByRange(g, m) },
		"hash":   bspTestSpec().Partition,
		"greedy": gasTestSpec().Partition,
	}
	streams := map[string]gen.BatchesConfig{
		"small": {Batches: 3, Adds: 6, Removes: 3, Window: 100, Seed: 5},
		"large": {Batches: 3, Adds: 300, Removes: 150, Window: g0.NumVertices(), Seed: 6},
	}
	for pname, partition := range partitioners {
		for sname, sc := range streams {
			t.Run(pname+"/"+sname, func(t *testing.T) {
				batches, err := gen.SynthesizeBatches(g0, sc)
				if err != nil {
					t.Fatal(err)
				}
				batches = append(batches, shapedBatches(t, g0, batches, batches[0].Adds[0])...)
				// The next boundary grows the vertex range (all-dirty, no
				// signature), the last runs the grown cursors again.
				n := graph.VertexID(g0.NumVertices())
				batches = append(batches,
					graph.EdgeBatch{Time: 10, Adds: []graph.Edge{{Src: 0, Dst: n, Weight: 1}}},
					graph.EdgeBatch{Time: 11, Adds: []graph.Edge{{Src: n, Dst: 1, Weight: 1}}, Removes: batches[0].Adds[:1]})
				var carried dirtySeeder
				g, part := g0, partition(g0, 3)
				for bi, b := range batches {
					ng, err := g.ApplyBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					npart := partition(ng, 3)
					want := dirtySeedOracle(g, ng, part, npart)
					if got := carried.seed(g, ng, part, npart); !slices.Equal(got, want) {
						t.Fatalf("batch %d: carried seeder diverges from the oracle", bi)
					}
					if got := DirtySeed(g, ng, part, npart); !slices.Equal(got, want) {
						t.Fatalf("batch %d: DirtySeed diverges from the oracle", bi)
					}
					clean := 0
					for _, d := range want {
						if !d {
							clean++
						}
					}
					if bi < 3 && (clean == 0 || clean == len(want)) {
						t.Fatalf("batch %d: %d of %d vertices clean — the comparison is not exercised", bi, clean, len(want))
					}
					g, part = ng, npart
				}
				// A different node count is all-dirty either way.
				if got, want := DirtySeed(g0, g0, partition(g0, 2), partition(g0, 3)), dirtySeedOracle(g0, g0, partition(g0, 2), partition(g0, 3)); !slices.Equal(got, want) {
					t.Fatal("node-count change: DirtySeed diverges from the oracle")
				}
			})
		}
	}
}

// allocStream runs a three-batch incremental PageRank stream over orkut
// (adds per batch as given, half as many removes) and returns the run
// with the heap bytes it allocated.
func allocStream(t *testing.T, g *graph.Graph, adds int) (*Result, uint64) {
	t.Helper()
	batches, err := gen.SynthesizeBatches(g, gen.BatchesConfig{Batches: 3, Adds: adds, Removes: adds / 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Spec: bspTestSpec(), Nodes: 4, Graph: g, Alg: algos.NewPageRank(), MaxIter: 16,
		Stream: &BatchStream{Batches: batches},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return res, after.TotalAlloc - before.TotalAlloc
}

// What a boundary of an incremental stream allocates is the new graph
// version (24 B/edge), its partitioning (16 B/edge of part edges) and
// per-vertex state — not a second copy of the graph on the way there, not
// a signature per partitioning, not a fresh trace: the stream carries one
// signature buffer and two traces from its first boundary to its last.
// The budget is 64 B/edge plus a per-vertex, per-superstep allowance, and
// the size of the batch does not move it. (Before the direct merge a
// boundary allocated ~85 B/edge.)
func TestStreamBoundaryAllocs(t *testing.T) {
	g, err := gen.Load(gen.Orkut, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	perBoundary := func(adds int) float64 {
		res, bytes := allocStream(t, g, adds)
		boundaries := float64(len(res.Batches))
		budget := 64*float64(g.NumEdges()) + 16*float64(g.NumVertices())*float64(res.Iterations)/boundaries
		got := float64(bytes) / boundaries
		t.Logf("%d adds/batch: %.0f B/boundary = %.1f B/edge (budget %.0f, %d supersteps)",
			adds, got, got/float64(g.NumEdges()), budget, res.Iterations)
		if !raceEnabled && got > budget {
			t.Errorf("%d adds/batch: a boundary allocates %.0f B, budget %.0f", adds, got, budget)
		}
		return got
	}
	small, large := perBoundary(12), perBoundary(400)
	if !raceEnabled && math.Abs(large-small) > 0.05*small {
		t.Errorf("a boundary allocates %.0f B under 18-mutation batches and %.0f B under 600-mutation ones; want within 5%%", small, large)
	}
}
