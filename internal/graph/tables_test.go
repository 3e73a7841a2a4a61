package graph

import "testing"

func mkTables(t *testing.T) (*VertexTable, *EdgeTable, *MappingTable) {
	t.Helper()
	vt := NewVertexTable([]VertexID{10, 20, 30}, 2)
	et := NewEdgeTable([]Edge{
		{10, 20, 1}, {10, 30, 2}, // vertex row 0
		{20, 30, 3}, // vertex row 1
		// vertex row 2 (30) has no out-edges
	})
	mt, err := BuildMapping(vt, et)
	if err != nil {
		t.Fatal(err)
	}
	return vt, et, mt
}

func TestVertexTableBasics(t *testing.T) {
	vt := NewVertexTable([]VertexID{5, 9}, 3)
	if vt.Len() != 2 || vt.Stride() != 3 {
		t.Fatal("table meta wrong")
	}
	r, ok := vt.Lookup(9)
	if !ok || r != 1 || len(vt.Row(r)) != 3 {
		t.Fatal("Lookup(9) failed")
	}
	vt.Row(r)[1] = 42
	if vt.Attrs()[1*3+1] != 42 {
		t.Fatal("Row does not alias storage")
	}
	if _, ok := vt.Lookup(7); ok {
		t.Fatal("Lookup found a missing vertex")
	}
	if vt.ID(0) != 5 {
		t.Fatal("ID(0) wrong")
	}
}

func TestVertexTableDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate IDs accepted")
		}
	}()
	NewVertexTable([]VertexID{1, 1}, 1)
}

func TestVertexTableBadStridePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("stride 0 accepted")
		}
	}()
	NewVertexTable(nil, 0)
}

func TestBuildMapping(t *testing.T) {
	_, _, mt := mkTables(t)
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

func TestBuildMappingRejectsUnknownSource(t *testing.T) {
	vt := NewVertexTable([]VertexID{1}, 1)
	et := NewEdgeTable([]Edge{{99, 1, 1}})
	if _, err := BuildMapping(vt, et); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestBuildMappingRejectsUngrouped(t *testing.T) {
	vt := NewVertexTable([]VertexID{1, 2}, 1)
	et := NewEdgeTable([]Edge{{1, 2, 1}, {2, 1, 1}, {1, 2, 1}})
	if _, err := BuildMapping(vt, et); err == nil {
		t.Fatal("ungrouped edge table accepted")
	}
}
