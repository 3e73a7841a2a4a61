package graph

// This file implements the agent-side data management of §II-B: a vertex
// table and an edge table per distributed node, and a vertex-edge mapping
// table that turns table rows into the vertex/edge blocks fed to daemons.
// The blocks themselves, and the edge triplets the pipeline of §III-A
// moves around, are the middleware's wire format (internal/gxplug).

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
