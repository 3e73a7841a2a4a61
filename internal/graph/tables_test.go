package graph

import "testing"

// mkTables returns the tables of a three-vertex graph held by one node.
func mkTables(t *testing.T, stride int) (*Partitioning, *VertexTable, EdgeTable, MappingTable) {
	t.Helper()
	g := MustFromEdges(3, []Edge{
		{0, 1, 1}, {0, 2, 2}, // vertex 0
		{1, 2, 3}, // vertex 1
		// vertex 2 has no out-edges
	})
	p := EdgeCutByRange(g, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	vt, et, mt := p.Parts[0].Tables(stride)
	return p, vt, et, mt
}

func TestVertexTableBasics(t *testing.T) {
	_, vt, _, _ := mkTables(t, 3)
	if vt.Len() != 3 || vt.Stride() != 3 {
		t.Fatal("table meta wrong")
	}
	r, ok := vt.Lookup(1)
	if !ok || r != 1 || len(vt.Row(r)) != 3 {
		t.Fatal("Lookup(1) failed")
	}
	vt.Row(r)[1] = 42
	if vt.Attrs()[1*3+1] != 42 {
		t.Fatal("Row does not alias storage")
	}
	if vt.ID(0) != 0 || vt.ID(2) != 2 {
		t.Fatal("ID wrong")
	}
}

// Under vertex-cut a node's table lists its masters, then the sources it
// holds for other masters; Lookup finds both kinds and nothing else.
func TestVertexTableLookupSources(t *testing.T) {
	g := randomGraph(9, 60, 600)
	p := GreedyVertexCut(g, 3)
	sources := 0
	for _, part := range p.Parts {
		vt, _, _ := part.Tables(1)
		if vt.Len() != len(part.Masters)+len(part.Sources) {
			t.Fatalf("node %d: %d rows for %d masters + %d sources",
				part.Node, vt.Len(), len(part.Masters), len(part.Sources))
		}
		held := make(map[VertexID]int)
		for r := 0; r < vt.Len(); r++ {
			held[vt.ID(r)] = r
		}
		if len(held) != vt.Len() {
			t.Fatalf("node %d: duplicate ids in the table", part.Node)
		}
		for v := 0; v < g.NumVertices(); v++ {
			want, held := held[VertexID(v)]
			got, ok := vt.Lookup(VertexID(v))
			if ok != held || (ok && got != want) {
				t.Fatalf("node %d: Lookup(%d) = %d, %v; want %d, %v", part.Node, v, got, ok, want, held)
			}
		}
		sources += len(part.Sources)
	}
	if sources == 0 {
		t.Fatal("vertex-cut produced no non-master source: the case is not exercised")
	}
}

func TestVertexTableBadStridePanics(t *testing.T) {
	p, _, _, _ := mkTables(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("stride 0 accepted")
		}
	}()
	p.Parts[0].Tables(0)
}

func TestBuildMapping(t *testing.T) {
	_, _, _, mt := mkTables(t, 2)
	if s, e := mt.EdgeRange(0); s != 0 || e != 2 {
		t.Fatalf("range(0) = [%d,%d), want [0,2)", s, e)
	}
	if s, e := mt.EdgeRange(1); s != 2 || e != 3 {
		t.Fatalf("range(1) = [%d,%d), want [2,3)", s, e)
	}
	if s, e := mt.EdgeRange(2); s != e {
		t.Fatalf("range(2) not empty: [%d,%d)", s, e)
	}
}

// Tables hands out views: every agent over a partition reads the same
// edge and mapping storage, and only the attribute array is allocated.
func TestTablesShareLayout(t *testing.T) {
	g := randomGraph(10, 50, 4000)
	part := GreedyVertexCut(g, 2).Parts[0]
	_, et1, mt1 := part.Tables(2)
	_, et2, mt2 := part.Tables(2)
	if &et1[0] != &part.Edges[0] || &et2[0] != &part.Edges[0] {
		t.Fatal("edge table is a copy of the partition's edges")
	}
	if &mt1[0] != &part.RowEdges[0] || &mt2[0] != &part.RowEdges[0] {
		t.Fatal("mapping table is a copy of the partition's row ranges")
	}
	if n := testing.AllocsPerRun(10, func() { part.Tables(2) }); n > 2 {
		t.Fatalf("Tables allocates %v objects, want the table and its attribute array", n)
	}
}

// Validate rejects a partitioning whose derived layout disagrees with
// its edges — what BuildMapping's ungrouped / unknown-source errors and
// NewVertexTable's duplicate-id panic used to catch per agent.
func TestValidateRejectsCorruptLayout(t *testing.T) {
	// A part with at least two sources.
	pick := func(t *testing.T, p *Partitioning) *Partition {
		for _, part := range p.Parts {
			if len(part.Sources) >= 2 {
				return part
			}
		}
		t.Fatal("no part with two sources")
		return nil
	}
	for name, corrupt := range map[string]func(t *testing.T, p *Partitioning){
		"ungrouped-edges": func(t *testing.T, p *Partitioning) {
			es := pick(t, p).Edges
			last := len(es) - 1
			es[1], es[last] = es[last], es[1]
			if es[0].Src == es[1].Src || es[0].Src != es[2].Src {
				t.Fatal("swap did not split a group")
			}
		},
		"source-without-a-row": func(t *testing.T, p *Partitioning) {
			part := pick(t, p)
			part.Sources = part.Sources[:len(part.Sources)-1]
			part.RowEdges = part.RowEdges[:len(part.RowEdges)-1]
		},
		"duplicate-source": func(t *testing.T, p *Partitioning) {
			part := pick(t, p)
			part.Sources[1] = part.Sources[0]
		},
		"short-edge-range": func(t *testing.T, p *Partitioning) {
			part := pick(t, p)
			part.RowEdges[len(part.RowEdges)-1][1]--
		},
		"endpoint-count": func(t *testing.T, p *Partitioning) { pick(t, p).Endpoints++ },
		"replica-order": func(t *testing.T, p *Partitioning) {
			for v := range p.Owner {
				if k := p.MirrorOff[v]; p.MirrorOff[v+1]-k >= 2 {
					p.MirrorNodes[k], p.MirrorNodes[k+1] = p.MirrorNodes[k+1], p.MirrorNodes[k]
					return
				}
			}
			t.Fatal("no vertex with two replicas")
		},
	} {
		t.Run(name, func(t *testing.T) {
			p := GreedyVertexCut(randomGraph(11, 200, 1500), 4)
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, p)
			if err := p.Validate(); err == nil {
				t.Fatal("corrupt layout validated")
			}
		})
	}
}
