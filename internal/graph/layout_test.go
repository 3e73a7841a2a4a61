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
