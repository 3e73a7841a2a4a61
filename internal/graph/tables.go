package graph

import "fmt"

// This file implements the agent-side data management of §II-B: a vertex
// table and an edge table per distributed node, a vertex-edge mapping
// table that turns table rows into the vertex/edge blocks fed to daemons,
// and the edge-triplet unit that the pipeline of §III-A moves around.

// VertexTable stores the attributes of the vertices a distributed node
// references. Attributes are flat float64 rows of a fixed per-algorithm
// stride — the "bit data organization" of the data packager (§IV-B1):
// rows serialize to shared memory with no reflection and no copies beyond
// the row itself.
type VertexTable struct {
	stride int
	ids    []VertexID
	idx    map[VertexID]int32
	attrs  []float64
}

// NewVertexTable builds a table over the given global vertex IDs, all
// attributes zero. IDs must be unique.
func NewVertexTable(ids []VertexID, stride int) *VertexTable {
	if stride <= 0 {
		panic(fmt.Sprintf("graph: vertex table stride %d", stride))
	}
	t := &VertexTable{
		stride: stride,
		ids:    ids,
		idx:    make(map[VertexID]int32, len(ids)),
		attrs:  make([]float64, len(ids)*stride),
	}
	for i, id := range ids {
		if _, dup := t.idx[id]; dup {
			panic(fmt.Sprintf("graph: duplicate vertex %d in table", id))
		}
		t.idx[id] = int32(i)
	}
	return t
}

// Len returns the number of rows.
func (t *VertexTable) Len() int { return len(t.ids) }

// Stride returns the attribute width.
func (t *VertexTable) Stride() int { return t.stride }

// ID returns the global vertex ID of row i.
func (t *VertexTable) ID(i int) VertexID { return t.ids[i] }

// Row returns the attribute slice of row i, aliasing table storage.
func (t *VertexTable) Row(i int) []float64 {
	return t.attrs[i*t.stride : (i+1)*t.stride]
}

// Lookup maps a global vertex ID to its row index.
func (t *VertexTable) Lookup(id VertexID) (int, bool) {
	i, ok := t.idx[id]
	return int(i), ok
}

// Attrs exposes the backing attribute array (len = Len()*Stride()); block
// builders and the shm codec use it to avoid per-row copies.
func (t *VertexTable) Attrs() []float64 { return t.attrs }

// EdgeTable stores the edges assigned to a distributed node, grouped by
// source vertex so the mapping table can address "the outer edges of
// vertex v" as one contiguous range (§II-B: "to construct an edge block,
// an agent selects a vertex and retrieves its outer edges, with
// vertex-edge mapping table").
type EdgeTable struct {
	edges []Edge
}

// NewEdgeTable wraps an edge slice; callers hand over ownership.
func NewEdgeTable(edges []Edge) *EdgeTable { return &EdgeTable{edges: edges} }

// Len returns the edge count.
func (t *EdgeTable) Len() int { return len(t.edges) }

// At returns edge i.
func (t *EdgeTable) At(i int) Edge { return t.edges[i] }

// Slice returns edges [start,end), aliasing table storage.
func (t *EdgeTable) Slice(start, end int) []Edge { return t.edges[start:end] }

// MappingTable is the vertex-edge mapping table: for each row of a vertex
// table it records the range of edge-table indices holding that vertex's
// outer edges.
type MappingTable struct {
	off []int32 // len = vertices+1; edge-table range of vertex row v is [off[v], off[v+1])
}

// BuildMapping constructs the mapping table for a vertex table and edge
// table. Edges must be grouped by source; sources must exist in the
// vertex table.
func BuildMapping(vt *VertexTable, et *EdgeTable) (*MappingTable, error) {
	counts := make([]int32, vt.Len()+1)
	lastRow := -1
	for i := 0; i < et.Len(); i++ {
		e := et.At(i)
		row, ok := vt.Lookup(e.Src)
		if !ok {
			return nil, fmt.Errorf("graph: edge source %d not in vertex table", e.Src)
		}
		if row < lastRow {
			return nil, fmt.Errorf("graph: edge table not grouped by source at index %d", i)
		}
		if row != lastRow && counts[row+1] != 0 {
			return nil, fmt.Errorf("graph: source %d appears in two groups", e.Src)
		}
		lastRow = row
		counts[row+1]++
	}
	for v := 0; v < vt.Len(); v++ {
		counts[v+1] += counts[v]
	}
	return &MappingTable{off: counts}, nil
}

// EdgeRange returns the edge-table index range of vertex row v.
func (m *MappingTable) EdgeRange(v int) (start, end int) {
	return int(m.off[v]), int(m.off[v+1])
}

// Triplet is the homogeneous intermediate unit of the pipeline: an edge
// together with the row indices of its endpoints in the block's vertex
// table (§III-A2a: "we use edge triplets as the intermediate data
// structure ... the basic processing unit of an iteration").
type Triplet struct {
	Src, Dst VertexID
	W        float64
	// SrcRow/DstRow index into the paired vertex block's attribute rows.
	SrcRow, DstRow int32
}

// EdgeBlock is a fixed-capacity batch of triplets shipped to a daemon.
type EdgeBlock struct {
	Triplets []Triplet
}

// VertexBlock carries the vertices an edge block references — sources and
// destinations with their attributes ("the corresponding vertex block is
// constituted by incorporating destination vertices, as well as their
// attributes", §II-B).
type VertexBlock struct {
	IDs    []VertexID
	Stride int
	Attrs  []float64 // len = len(IDs)*Stride
}

// Row returns the attribute row of block-local vertex i.
func (b *VertexBlock) Row(i int) []float64 {
	return b.Attrs[i*b.Stride : (i+1)*b.Stride]
}
