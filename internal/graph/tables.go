package graph

// This file implements the agent-side data management of §II-B: a vertex
// table and an edge table per distributed node, a vertex-edge mapping
// table that turns table rows into the vertex/edge blocks fed to daemons,
// and the edge-triplet unit that the pipeline of §III-A moves around.

// VertexTable stores the attributes of the vertices a distributed node
// references: the partition's masters, then its Sources. Attributes are
// flat float64 rows of a fixed per-algorithm stride — the "bit data
// organization" of the data packager (§IV-B1): rows serialize to shared
// memory with no reflection and no copies beyond the row itself. Which
// vertex a row holds is the partition's layout; only the attributes are
// the table's own.
type VertexTable struct {
	part   *Partition
	stride int
	attrs  []float64
}

// Len returns the number of rows.
func (t *VertexTable) Len() int { return len(t.part.RowEdges) }

// Stride returns the attribute width.
func (t *VertexTable) Stride() int { return t.stride }

// ID returns the global vertex ID of row i.
func (t *VertexTable) ID(i int) VertexID {
	if nM := len(t.part.Masters); i >= nM {
		return t.part.Sources[i-nM]
	}
	return t.part.Masters[i]
}

// Row returns the attribute slice of row i, aliasing table storage.
func (t *VertexTable) Row(i int) []float64 {
	return t.attrs[i*t.stride : (i+1)*t.stride]
}

// Lookup maps a global vertex ID to its row index.
func (t *VertexTable) Lookup(id VertexID) (int, bool) {
	return t.part.in.row(t.part.Node, id)
}

// Attrs exposes the backing attribute array (len = Len()*Stride()); block
// builders and the shm codec use it to avoid per-row copies.
func (t *VertexTable) Attrs() []float64 { return t.attrs }

// EdgeTable is the edges assigned to a distributed node — the partition's
// own Edges — grouped by source vertex so the mapping table can address
// "the outer edges of vertex v" as one contiguous range (§II-B: "to
// construct an edge block, an agent selects a vertex and retrieves its
// outer edges, with vertex-edge mapping table").
type EdgeTable []Edge

// Len returns the edge count.
func (t EdgeTable) Len() int { return len(t) }

// At returns edge i.
func (t EdgeTable) At(i int) Edge { return t[i] }

// MappingTable is the vertex-edge mapping table — the partition's
// RowEdges: for each row of a vertex table, the range of edge-table
// indices holding that vertex's outer edges.
type MappingTable [][2]int32

// EdgeRange returns the edge-table index range of vertex row v.
func (m MappingTable) EdgeRange(v int) (start, end int) {
	return int(m[v][0]), int(m[v][1])
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
