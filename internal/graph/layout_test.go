package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gxplug/internal/gen"
	"gxplug/internal/graph"
)

// standIns are the graphs the oracle comparisons run over: a dense social
// stand-in, a road network and a second social graph, at two sizes.
func standIns(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, d := range []gen.Dataset{gen.Orkut, gen.WRN, gen.LiveJournal} {
		for _, scale := range []int64{1000, 2000} {
			g, err := gen.Load(d, scale, 42)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/%d", d, scale)] = g
		}
	}
	return out
}

// The bitset vertex-cut places every edge and masters every vertex exactly
// as the map-based one did — past one bitset word (65, 130 nodes) too.
func TestGreedyVertexCutMatchesMapOracle(t *testing.T) {
	for name, g := range standIns(t) {
		for _, m := range []int{1, 2, 3, 4, 7, 8, 65, 130} {
			t.Run(fmt.Sprintf("%s/m=%d", name, m), func(t *testing.T) {
				got, want := graph.GreedyVertexCut(g, m), oracleGreedyVertexCut(g, m)
				if !slices.Equal(got.Owner, want.Owner) || !slices.Equal(got.MasterRow, want.MasterRow) {
					t.Fatal("routing index differs from the oracle's")
				}
				for j, part := range got.Parts {
					o := want.Parts[j]
					if !slices.Equal(part.Masters, o.Masters) {
						t.Fatalf("node %d: masters differ", j)
					}
					if !slices.Equal(part.Edges, o.Edges) {
						t.Fatalf("node %d: edges or their order differ", j)
					}
					if !slices.Equal(part.Internal, o.Internal) {
						t.Fatalf("node %d: internal flags differ", j)
					}
					if part.Mirrors != o.Mirrors {
						t.Fatalf("node %d: %d mirrors, oracle %d", j, part.Mirrors, o.Mirrors)
					}
				}
			})
		}
	}
}

// The layout newPartitioning derives — table ids, each row's edges, each
// vertex's replica holders — is what every agent and every run used to
// rebuild for itself, for every partitioner; the gen plan beside it —
// source-run ends, vertex slots — is what the map-based oracle derives.
func TestLayoutMatchesOracle(t *testing.T) {
	cuts := map[string]func(*graph.Graph) *graph.Partitioning{
		"greedy-vertex-cut": func(g *graph.Graph) *graph.Partitioning { return graph.GreedyVertexCut(g, 4) },
		"edge-cut-by-hash":  func(g *graph.Graph) *graph.Partitioning { return graph.EdgeCutByHash(g, 4) },
		"edge-cut-by-range": func(g *graph.Graph) *graph.Partitioning { return graph.EdgeCutByRange(g, 3) },
		"partition-by-sizes": func(g *graph.Graph) *graph.Partitioning {
			return graph.PartitionBySizes(g, []float64{1, 3, 2})
		},
	}
	for name, g := range standIns(t) {
		for cut, build := range cuts {
			t.Run(name+"/"+cut, func(t *testing.T) {
				p := build(g)
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				for j, part := range p.Parts {
					if cut != "greedy-vertex-cut" {
						// An edge-cut part holds its masters' out-edges, in
						// master then out-CSR order.
						var want []graph.Edge
						for _, v := range part.Masters {
							g.OutEdges(v, func(dst graph.VertexID, w float64) {
								want = append(want, graph.Edge{Src: v, Dst: dst, Weight: w})
							})
						}
						if !slices.Equal(part.Edges, want) {
							t.Fatalf("node %d: edges are not the masters' out-edges in order", j)
						}
					}
					vt := part.Tables(2)
					ovt, oet, omt := oracleTables(part, 2)
					if vt.Len() != ovt.Len() || len(part.Edges) != oet.Len() {
						t.Fatalf("node %d: %d rows / %d edges, oracle %d / %d",
							j, vt.Len(), len(part.Edges), ovt.Len(), oet.Len())
					}
					for r := 0; r < vt.Len(); r++ {
						if vt.ID(r) != ovt.ID(r) {
							t.Fatalf("node %d row %d: vertex %d, oracle %d", j, r, vt.ID(r), ovt.ID(r))
						}
						if got, ok := vt.Lookup(vt.ID(r)); !ok || got != r {
							t.Fatalf("node %d: Lookup(%d) = %d, %v; want row %d", j, vt.ID(r), got, ok, r)
						}
						re := part.RowEdges[r]
						os, oe := omt.EdgeRange(r)
						if !slices.Equal(part.Edges[re[0]:re[1]], oet.Slice(os, oe)) {
							t.Fatalf("node %d row %d: edge sequence differs from the oracle's", j, r)
						}
					}
				}
				runEnds, slot := oracleGenPlan(p)
				for j, part := range p.Parts {
					if !slices.Equal(part.RunEnds, runEnds[j]) {
						t.Fatalf("node %d: run ends %v, oracle %v", j, part.RunEnds, runEnds[j])
					}
				}
				for v, s := range p.Slot {
					if want, ok := slot[graph.VertexID(v)]; !ok || s != want {
						t.Fatalf("vertex %d: slot %d, oracle %d (%v)", v, s, want, ok)
					}
				}
				mirrors := oracleBuildMirrors(p)
				for v := 0; v < g.NumVertices(); v++ {
					want := mirrors[graph.VertexID(v)]
					got := p.MirrorsOf(graph.VertexID(v))
					if len(got) != len(want) {
						t.Fatalf("vertex %d: replicas on %v, oracle %v", v, got, want)
					}
					for k := range got {
						if int(got[k]) != want[k] {
							t.Fatalf("vertex %d: replicas on %v, oracle %v", v, got, want)
						}
					}
				}
			})
		}
	}
}

// EdgeCutByRange keeps the quantile walk's layout byte for byte wherever
// the graph has at least as many edges as nodes. With fewer, that walk
// left node 0 empty; the vertex-count cut gives every node a contiguous,
// non-empty range whenever there are enough vertices.
func TestEdgeCutByRangeMatchesOracle(t *testing.T) {
	star := func(leaves int, in bool) *graph.Graph {
		edges := make([]graph.Edge, leaves)
		for i := range edges {
			edges[i] = graph.Edge{Src: 0, Dst: graph.VertexID(i + 1), Weight: 1}
			if in {
				edges[i].Src, edges[i].Dst = edges[i].Dst, 0
			}
		}
		return graph.MustFromEdges(leaves+1, edges)
	}
	graphs := map[string]*graph.Graph{
		"star-out/40": star(40, false),
		"star-in/40":  star(40, true),
		"star-out/5":  star(5, false),
		"star-in/3":   star(3, true),
		"edgeless/97": graph.MustFromEdges(97, nil),
		"edgeless/8":  graph.MustFromEdges(8, nil),
		"one-edge/8":  graph.MustFromEdges(8, []graph.Edge{{Src: 3, Dst: 5, Weight: 1}}),
	}
	for _, c := range []gen.RMATConfig{
		{NumVertices: 300, NumEdges: 2500, A: 0.57, B: 0.19, C: 0.19, Seed: 1},
		{NumVertices: 300, NumEdges: 2500, A: 0.57, B: 0.19, C: 0.19, Community: true, Seed: 2},
		{NumVertices: 64, NumEdges: 3, A: 0.57, B: 0.19, C: 0.19, Seed: 3},
	} {
		g, err := gen.RMAT(c)
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("rmat/%d/%d/%v", c.NumVertices, c.NumEdges, c.Community)] = g
	}
	for _, c := range []gen.RoadConfig{{Rows: 6, Cols: 7, Seed: 1}, {Rows: 2, Cols: 2, Seed: 1}} {
		g, err := gen.Road(c)
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("lattice/%dx%d", c.Rows, c.Cols)] = g
	}
	sparse := 0
	for name, g := range graphs {
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 32} {
			p := graph.EdgeCutByRange(g, m)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s m=%d: %v", name, m, err)
			}
			if g.NumEdges() >= int64(m) {
				if want := oracleRangeOwner(g, m); !slices.Equal(p.Owner, want) {
					t.Fatalf("%s m=%d: owners %v, oracle %v", name, m, p.Owner, want)
				}
				continue
			}
			if m > g.NumVertices() {
				continue
			}
			sparse++
			for j, part := range p.Parts {
				if len(part.Masters) == 0 {
					t.Fatalf("%s m=%d: node %d masters nothing (owners %v)", name, m, j, p.Owner)
				}
			}
			if !slices.IsSorted(p.Owner) {
				t.Fatalf("%s m=%d: owners not contiguous: %v", name, m, p.Owner)
			}
		}
	}
	if sparse == 0 {
		t.Fatal("no graph with fewer edges than nodes was cut")
	}
}

// A partition build allocates per node and per array, never per edge or
// per vertex: the count depends on m alone.
func TestPartitionBuildAllocs(t *testing.T) {
	random := func(numV, numE int) *graph.Graph {
		rng := rand.New(rand.NewSource(12))
		edges := make([]graph.Edge, numE)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VertexID(rng.Intn(numV)), Dst: graph.VertexID(rng.Intn(numV)), Weight: 1}
		}
		return graph.MustFromEdges(numV, edges)
	}
	small, large := random(300, 2_000), random(3_000, 60_000)
	for name, build := range map[string]func(*graph.Graph, int) *graph.Partitioning{
		"vertex-cut": graph.GreedyVertexCut,
		"edge-cut":   graph.EdgeCutByHash,
	} {
		for _, m := range []int{2, 8} {
			allocs := func(g *graph.Graph) float64 {
				return testing.AllocsPerRun(5, func() { build(g, m) })
			}
			a, b := allocs(small), allocs(large)
			if a != b {
				t.Errorf("%s m=%d: %v allocations on %d edges, %v on %d", name, m, a, small.NumEdges(), b, large.NumEdges())
			}
			if limit := float64(8*m + 24); b > limit {
				t.Errorf("%s m=%d: %v allocations, want ≤ %v", name, m, b, limit)
			}
		}
	}
}
