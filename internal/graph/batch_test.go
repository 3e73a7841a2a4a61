package graph

import (
	"math"
	"reflect"
	"testing"
)

func batchBase(t *testing.T) *Graph {
	t.Helper()
	return MustFromEdges(4, []Edge{
		{0, 1, 1}, {0, 2, 2.5}, {1, 2, 1}, {2, 3, 1}, {3, 0, 0.5},
	})
}

// csrArraysEqual compares every CSR array bit for bit.
func csrArraysEqual(a, b *Graph) bool {
	ao, ad, aw, aio, ais, aiw := a.CSR()
	bo, bd, bw, bio, bis, biw := b.CSR()
	return a.NumVertices() == b.NumVertices() &&
		reflect.DeepEqual(ao, bo) && reflect.DeepEqual(ad, bd) && weightsBitEqual(aw, bw) &&
		reflect.DeepEqual(aio, bio) && reflect.DeepEqual(ais, bis) && weightsBitEqual(aiw, biw)
}

func weightsBitEqual(a, b []float64) bool {
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

func TestApplyBatchAddRemove(t *testing.T) {
	g := batchBase(t)
	ng, err := g.ApplyBatch(EdgeBatch{
		Adds:    []Edge{{1, 3, 4}, {3, 2, 1}},
		Removes: []Edge{{0, 2, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromEdges(4, []Edge{
		{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 0.5}, {1, 3, 4}, {3, 2, 1},
	})
	if !csrArraysEqual(ng, want) {
		t.Fatalf("ApplyBatch CSR differs from canonical rebuild:\n got %v\nwant %v", ng.Edges(), want.Edges())
	}
	// The old version is untouched.
	if !csrArraysEqual(g, batchBase(t)) {
		t.Fatal("ApplyBatch mutated the base graph")
	}
	// The version is a valid graph: FromCSR revalidates all invariants.
	oo, od, ow, io, is, iw := ng.CSR()
	if _, err := FromCSR(ng.NumVertices(), oo, od, ow, io, is, iw); err != nil {
		t.Fatalf("ApplyBatch produced an invalid CSR: %v", err)
	}
}

func TestApplyBatchGrowsVertexRange(t *testing.T) {
	g := batchBase(t)
	ng, err := g.ApplyBatch(EdgeBatch{Adds: []Edge{{2, 5, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d, want 6", ng.NumVertices())
	}
	if ng.OutDegree(4) != 0 || ng.InDegree(4) != 0 {
		t.Fatal("new vertex 4 should start isolated")
	}
	if ng.InDegree(5) != 1 {
		t.Fatalf("InDegree(5) = %d, want 1", ng.InDegree(5))
	}
}

// Vertex growth is bounded by the batch's own size: k adds may name ids
// below numV + 2k and nothing beyond, whatever else the batch holds.
func TestApplyBatchGrowthBound(t *testing.T) {
	g := batchBase(t) // 4 vertices
	cases := []struct {
		name    string
		b       EdgeBatch
		wantV   int
		wantErr string
	}{
		{name: "last id inside the bound", b: EdgeBatch{Adds: []Edge{{2, 5, 1}}}, wantV: 6},
		{name: "first id beyond it", b: EdgeBatch{Adds: []Edge{{2, 6, 1}}},
			wantErr: "graph: batch add 0 (2->6) beyond vertex growth bound 6 (4 vertices + 2 per add)"},
		{name: "source beyond it", b: EdgeBatch{Adds: []Edge{{6, 2, 1}}},
			wantErr: "graph: batch add 0 (6->2) beyond vertex growth bound 6 (4 vertices + 2 per add)"},
		{name: "two adds, two new vertices each", b: EdgeBatch{Adds: []Edge{{4, 5, 1}, {6, 7, 1}}}, wantV: 8},
		{name: "two adds, one id too far", b: EdgeBatch{Adds: []Edge{{4, 5, 1}, {6, 8, 1}}},
			wantErr: "graph: batch add 1 (6->8) beyond vertex growth bound 8 (4 vertices + 2 per add)"},
		{name: "removes do not widen it", b: EdgeBatch{Adds: []Edge{{2, 6, 1}}, Removes: []Edge{{0, 1, 0}, {0, 2, 0}}},
			wantErr: "graph: batch add 0 (2->6) beyond vertex growth bound 6 (4 vertices + 2 per add)"},
		{name: "the id that took gxd down", b: EdgeBatch{Adds: []Edge{{0, 4000000000, 1}}},
			wantErr: "graph: batch add 0 (0->4000000000) beyond vertex growth bound 6 (4 vertices + 2 per add)"},
	}
	for _, c := range cases {
		ng, err := g.ApplyBatch(c.b)
		switch {
		case c.wantErr != "":
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("%s: error %v, want %q", c.name, err, c.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case ng.NumVertices() != c.wantV:
			t.Errorf("%s: %d vertices, want %d", c.name, ng.NumVertices(), c.wantV)
		}
	}
}

func TestApplyBatchRemovesParallelEdges(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1, 1}, {0, 1, 2}, {1, 2, 1}})
	ng, err := g.ApplyBatch(EdgeBatch{Removes: []Edge{{0, 1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != 1 || ng.OutDegree(0) != 0 {
		t.Fatalf("parallel removal left %d edges, out-deg(0)=%d", ng.NumEdges(), ng.OutDegree(0))
	}
}

func TestApplyBatchErrors(t *testing.T) {
	g := batchBase(t)
	cases := map[string]EdgeBatch{
		"absent edge":      {Removes: []Edge{{1, 0, 0}}},
		"duplicate remove": {Removes: []Edge{{0, 1, 0}, {0, 1, 0}}},
		"remove beyond range": {
			Removes: []Edge{{9, 0, 0}},
		},
	}
	for name, b := range cases {
		if _, err := g.ApplyBatch(b); err == nil {
			t.Errorf("%s: ApplyBatch succeeded, want error", name)
		}
	}
}

func TestApplyBatchSharing(t *testing.T) {
	g := batchBase(t)
	// Empty batch: same version back.
	same, err := g.ApplyBatch(EdgeBatch{Time: 5})
	if err != nil {
		t.Fatal(err)
	}
	if same != g {
		t.Fatal("empty batch should return the same graph version")
	}
	// A remove+add pair that preserves both degree vectors shares both
	// offset arrays.
	ng, err := g.ApplyBatch(EdgeBatch{Adds: []Edge{{0, 2, 9}}, Removes: []Edge{{0, 2, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	no, _, _, nio, _, _ := ng.CSR()
	oo, _, _, oio, _, _ := g.CSR()
	if &no[0] != &oo[0] {
		t.Fatal("unchanged out-degree vector should share the out-offset array")
	}
	if &nio[0] != &oio[0] {
		t.Fatal("unchanged in-degree vector should share the in-offset array")
	}
	if w := ngWeight(ng, 0, 2); w != 9 {
		t.Fatalf("replaced edge weight = %v, want 9", w)
	}
}

func ngWeight(g *Graph, src, dst VertexID) float64 {
	w := math.NaN()
	g.OutEdges(src, func(d VertexID, wt float64) {
		if d == dst {
			w = wt
		}
	})
	return w
}

// TestApplyBatchDeterministic replays the same batch twice and expects
// bit-identical versions.
func TestApplyBatchDeterministic(t *testing.T) {
	b := EdgeBatch{Adds: []Edge{{3, 1, 2}, {0, 3, 1}}, Removes: []Edge{{1, 2, 0}}}
	a1, err := batchBase(t).ApplyBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := batchBase(t).ApplyBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !csrArraysEqual(a1, a2) {
		t.Fatal("replaying a batch produced different versions")
	}
}
