package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// diamond returns a small fixed graph used across tests:
//
//	0 -> 1 (w=1), 0 -> 2 (w=2), 1 -> 3 (w=3), 2 -> 3 (w=4), 3 -> 0 (w=5)
func diamond() *Graph {
	return MustFromEdges(4, []Edge{
		{0, 1, 1}, {0, 2, 2}, {1, 3, 3}, {2, 3, 4}, {3, 0, 5},
	})
}

func TestFromEdgesBasic(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("V=%d E=%d, want 4/5", g.NumVertices(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.InDegree(3) != 2 || g.OutDegree(3) != 1 {
		t.Fatal("degree accessors wrong")
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5, 1}}); err == nil {
		t.Fatal("edge to vertex 5 in 2-vertex graph accepted")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Fatal("negative vertex count accepted")
	}
}

func TestOutInEdgesAgree(t *testing.T) {
	g := diamond()
	type pair struct {
		s, d VertexID
		w    float64
	}
	var outs, ins []pair
	for v := 0; v < g.NumVertices(); v++ {
		g.OutEdges(VertexID(v), func(d VertexID, w float64) {
			outs = append(outs, pair{VertexID(v), d, w})
		})
		g.InEdges(VertexID(v), func(s VertexID, w float64) {
			ins = append(ins, pair{s, VertexID(v), w})
		})
	}
	if len(outs) != len(ins) || len(outs) != 5 {
		t.Fatalf("out/in edge counts differ: %d vs %d", len(outs), len(ins))
	}
	seen := make(map[pair]int)
	for _, p := range outs {
		seen[p]++
	}
	for _, p := range ins {
		seen[p]--
	}
	for p, c := range seen {
		if c != 0 {
			t.Fatalf("edge %v appears %+d times more in out view", p, c)
		}
	}
}

// edgeList reads g's edge list back off its out-CSR, in source order.
func edgeList(g *Graph) []Edge {
	var out []Edge
	for v := 0; v < g.NumVertices(); v++ {
		g.OutEdges(VertexID(v), func(d VertexID, w float64) { out = append(out, Edge{VertexID(v), d, w}) })
	}
	return out
}

func TestEdgesRoundTrip(t *testing.T) {
	g := diamond()
	g2 := MustFromEdges(g.NumVertices(), edgeList(g))
	if !reflect.DeepEqual(edgeList(g), edgeList(g2)) {
		t.Fatal("edge list round trip changed the edge list")
	}
}

func TestEdgeRange(t *testing.T) {
	g := diamond()
	var got []Edge
	g.EdgeRange(1, 4, func(s, d VertexID, w float64) {
		got = append(got, Edge{s, d, w})
	})
	all := edgeList(g)
	if !reflect.DeepEqual(got, all[1:4]) {
		t.Fatalf("EdgeRange(1,4) = %v, want %v", got, all[1:4])
	}
	// Clamping.
	var n int
	g.EdgeRange(-3, 100, func(s, d VertexID, w float64) { n++ })
	if int64(n) != g.NumEdges() {
		t.Fatalf("clamped range visited %d, want %d", n, g.NumEdges())
	}
	g.EdgeRange(4, 2, func(s, d VertexID, w float64) { t.Fatal("inverted range visited edges") })
}

func TestStats(t *testing.T) {
	s := diamond().Stats()
	if s.Vertices != 4 || s.Edges != 5 || s.MaxDegree != 2 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.AvgDegree != 1.25 {
		t.Fatalf("avg degree = %v, want 1.25", s.AvgDegree)
	}
}

func TestMemoryFootprintGrows(t *testing.T) {
	g := diamond()
	if g.MemoryFootprint(4) <= g.MemoryFootprint(1) {
		t.Fatal("footprint not increasing in attribute width")
	}
}

// writeEdgeListFmt is WriteEdgeList as it was written with fmt, kept
// verbatim: the oracle the strconv version must match byte for byte.
func writeEdgeListFmt(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var werr error
	for v := 0; v < g.numV && werr == nil; v++ {
		g.OutEdges(VertexID(v), func(dst VertexID, wt float64) {
			if werr != nil {
				return
			}
			if wt == 1.0 {
				_, werr = fmt.Fprintf(bw, "%d %d\n", v, dst)
			} else {
				_, werr = fmt.Fprintf(bw, "%d %d %g\n", v, dst, wt)
			}
		})
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// WriteEdgeList prints exactly what "%d %d\n" / "%d %d %g\n" printed,
// over the weights where %g and strconv could part: infinities, NaN,
// negative zero, the exponent switch at 1e21, the smallest subnormal,
// the unweighted 1.0 and its neighbour — and over a random graph.
func TestWriteEdgeListMatchesFmt(t *testing.T) {
	weights := []float64{1, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
		1e21, 1e20, 5e-324, math.MaxFloat64, 1.0000000000000002, 2.5, -3, 1e-5, 123456.789}
	var edges []Edge
	for i, w := range weights {
		edges = append(edges, Edge{VertexID(i), VertexID(len(weights) - 1 - i), w})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		edges = append(edges, Edge{VertexID(rng.Intn(4000)), VertexID(rng.Intn(4000)), 1 + 9*rng.Float64()})
	}
	for _, g := range []*Graph{MustFromEdges(len(weights), edges[:len(weights)]), MustFromEdges(4000, edges)} {
		var got, want bytes.Buffer
		if err := WriteEdgeList(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := writeEdgeListFmt(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteEdgeList output differs from fmt's:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	}
}

// Property: CSR construction preserves the multiset of edges and the
// degree sums for arbitrary random graphs.
func TestFromEdgesPreservesEdgesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numV := 1 + rng.Intn(50)
		numE := rng.Intn(300)
		edges := make([]Edge, numE)
		for i := range edges {
			edges[i] = Edge{
				Src:    VertexID(rng.Intn(numV)),
				Dst:    VertexID(rng.Intn(numV)),
				Weight: float64(rng.Intn(10)),
			}
		}
		g, err := FromEdges(numV, edges)
		if err != nil {
			return false
		}
		if g.NumEdges() != int64(numE) {
			return false
		}
		var outSum, inSum int
		for v := 0; v < numV; v++ {
			outSum += g.OutDegree(VertexID(v))
			inSum += g.InDegree(VertexID(v))
		}
		return outSum == numE && inSum == numE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
