package ingest

import (
	"strings"
	"testing"

	"gxplug/internal/graph"
)

// edgeList reads g's edge list back off its out-CSR, in source order.
func edgeList(g *graph.Graph) []graph.Edge {
	var out []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		g.OutEdges(graph.VertexID(v), func(d graph.VertexID, w float64) {
			out = append(out, graph.Edge{Src: graph.VertexID(v), Dst: d, Weight: w})
		})
	}
	return out
}

func TestParseEdgeListRelabelsSorted(t *testing.T) {
	// Sparse SNAP-style ids with comments; relabeling maps ascending
	// original ids to [0, n).
	const snap = `# Directed graph: test
# FromNodeId	ToNodeId
100	7
7	100
% another comment style
100	4000
`
	p, err := ParseEdgeList(strings.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Graph.NumVertices(), 3; got != want {
		t.Fatalf("vertices = %d, want %d", got, want)
	}
	if got, want := p.Graph.NumEdges(), int64(3); got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	wantOrig := []int64{7, 100, 4000}
	for i, id := range p.OrigID {
		if id != wantOrig[i] {
			t.Fatalf("OrigID = %v, want %v", p.OrigID, wantOrig)
		}
	}
	// 100→7 becomes 1→0, 7→100 becomes 0→1, 100→4000 becomes 1→2.
	edges := edgeList(p.Graph)
	want := []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for i, e := range edges {
		if e != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, e, want[i])
		}
	}
}

func TestParseEdgeListDenseIDsKeepNumbering(t *testing.T) {
	// A file already using the full dense range keeps its ids.
	p, err := ParseEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range p.OrigID {
		if id != int64(i) {
			t.Fatalf("dense ids relabeled: %v", p.OrigID)
		}
	}
}

func TestParseEdgeListWeightedTSV(t *testing.T) {
	p, err := ParseEdgeList(strings.NewReader("0\t1\t2.5\n1\t0\t0.25\n"))
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeList(p.Graph)
	if edges[0].Weight != 2.5 || edges[1].Weight != 0.25 {
		t.Fatalf("weights lost: %v", edges)
	}
}

func TestParseEdgeListPreservesEdgeOrder(t *testing.T) {
	// Two parallel edges into one destination: in-CSR tie order must be
	// file order (the floating-point merge order engines observe).
	p, err := ParseEdgeList(strings.NewReader("2 0 5\n1 0 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	var srcs []graph.VertexID
	var ws []float64
	p.Graph.InEdges(0, func(src graph.VertexID, w float64) {
		srcs = append(srcs, src)
		ws = append(ws, w)
	})
	if len(srcs) != 2 || srcs[0] != 2 || srcs[1] != 1 || ws[0] != 5 || ws[1] != 7 {
		t.Fatalf("in-CSR order not file order: srcs=%v ws=%v", srcs, ws)
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	for name, input := range map[string]string{
		"one-field":       "42\n",
		"bad-src":         "x 1\n",
		"bad-dst":         "1 x\n",
		"negative":        "-1 2\n",
		"bad-weight":      "0 1 heavy\n",
		"nan-weight":      "0 1 NaN\n",
		"inf-weight":      "0 1 +Inf\n",
		"empty-file":      "",
		"only-comments":   "# nothing\n",
		"zero-edge-graph": "#\n\n",
	} {
		p, err := ParseEdgeList(strings.NewReader(input))
		switch name {
		case "empty-file", "only-comments", "zero-edge-graph":
			// Edge-free inputs parse into an empty graph, not an error.
			if err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			} else if p.Graph.NumVertices() != 0 || p.Graph.NumEdges() != 0 {
				t.Errorf("%s: got %d vertices / %d edges, want empty", name, p.Graph.NumVertices(), p.Graph.NumEdges())
			}
		default:
			if err == nil {
				t.Errorf("%s: parse accepted %q", name, input)
			}
		}
	}
}

func TestParseEdgeListFileMissing(t *testing.T) {
	if _, err := ParseEdgeListFile(t.TempDir() + "/nope.el"); err == nil {
		t.Fatal("missing file accepted")
	}
}
