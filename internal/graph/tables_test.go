package graph

import (
	"slices"
	"testing"
)

// mkTables returns the vertex table of a three-vertex graph held by one
// node, and the node's partition.
func mkTables(t *testing.T, stride int) (*Partitioning, *VertexTable) {
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
	return p, p.Parts[0].Tables(stride)
}

func TestVertexTableBasics(t *testing.T) {
	_, vt := mkTables(t, 3)
	if vt.Len() != 3 || len(vt.Attrs()) != 3*3 {
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
		vt := part.Tables(1)
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
	p, _ := mkTables(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("stride 0 accepted")
		}
	}()
	p.Parts[0].Tables(0)
}

func TestBuildMapping(t *testing.T) {
	p, _ := mkTables(t, 2)
	mt := p.Parts[0].RowEdges
	if r := mt[0]; r != [2]int32{0, 2} {
		t.Fatalf("range(0) = [%d,%d), want [0,2)", r[0], r[1])
	}
	if r := mt[1]; r != [2]int32{2, 3} {
		t.Fatalf("range(1) = [%d,%d), want [2,3)", r[0], r[1])
	}
	if r := mt[2]; r[0] != r[1] {
		t.Fatalf("range(2) not empty: [%d,%d)", r[0], r[1])
	}
}

// A vertex table reads the partition's layout: only the table and its
// attribute array are allocated.
func TestTablesShareLayout(t *testing.T) {
	g := randomGraph(10, 50, 4000)
	part := GreedyVertexCut(g, 2).Parts[0]
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
	// A run k > 0 of some part that holds at least two edges.
	longRun := func(t *testing.T, p *Partitioning) (*Partition, int) {
		for _, part := range p.Parts {
			for k := 1; k < len(part.RunEnds); k++ {
				if part.RunEnds[k]-part.RunEnds[k-1] >= 2 {
					return part, k
				}
			}
		}
		t.Fatal("no run of two edges")
		return nil, 0
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
		"run-ends-not-increasing": func(t *testing.T, p *Partitioning) {
			part, k := longRun(t, p)
			part.RunEnds[k] = part.RunEnds[k-1]
		},
		"runs-stop-short": func(t *testing.T, p *Partitioning) {
			for _, part := range p.Parts {
				if k := len(part.RunEnds) - 1; k > 0 && part.RunEnds[k]-part.RunEnds[k-1] >= 2 {
					part.RunEnds[k]--
					return
				}
			}
			t.Fatal("no part whose last run holds two edges")
		},
		"run-of-two-sources": func(t *testing.T, p *Partitioning) {
			// Run k-1 takes run k's first edge.
			part, k := longRun(t, p)
			part.RunEnds[k-1]++
		},
		"source-split-in-two-runs": func(t *testing.T, p *Partitioning) {
			part, k := longRun(t, p)
			part.RunEnds = slices.Insert(part.RunEnds, k, part.RunEnds[k]-1)
		},
		"slot-off-by-one": func(t *testing.T, p *Partitioning) {
			v := p.Parts[1].Masters[0]
			p.Slot[v]--
		},
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
