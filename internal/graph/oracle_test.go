package graph_test

import (
	"fmt"
	"sort"

	"gxplug/internal/graph"
)

// This file keeps the implementations the partition layout replaced —
// the map-based greedy vertex-cut, the per-agent copy-sort-lookup table
// build and the engine's per-run mirror map — verbatim (identifiers
// prefixed, types qualified) as the oracles layout_test.go compares
// the one derivation on graph.Partitioning against. Nothing outside the
// tests runs them. oracleGenPlan is the map-based derivation of the gen
// plan newPartitioning adds beside the layout. oracleRangeOwner is
// EdgeCutByRange's quantile loop before graphs with fewer edges than
// nodes were cut by vertex count.

// oracleNewPartitioning assembles a partitioning from finished parts, deriving
// the master-row half of the routing index.
func oracleNewPartitioning(g *graph.Graph, parts []*graph.Partition, owner []int32) *graph.Partitioning {
	masterRow := make([]int32, len(owner))
	for _, part := range parts {
		for mi, v := range part.Masters {
			masterRow[v] = int32(mi)
		}
	}
	return &graph.Partitioning{Graph: g, Parts: parts, Owner: owner, MasterRow: masterRow}
}

// oracleGreedyVertexCut implements the PowerGraph greedy edge-placement
// heuristic: each edge goes to a node already holding one of its
// endpoints where possible, breaking ties by load; vertices are mastered
// on the least-loaded node that holds them.
func oracleGreedyVertexCut(g *graph.Graph, m int) *graph.Partitioning {
	if m <= 0 {
		panic(fmt.Sprintf("graph: %d partitions", m))
	}
	type vplace struct{ nodes map[int32]bool }
	places := make([]vplace, g.NumVertices())
	for v := range places {
		places[v].nodes = make(map[int32]bool, 2)
	}
	load := make([]int64, m)
	edgesPer := make([][]graph.Edge, m)

	assign := func(e graph.Edge, j int32) {
		edgesPer[j] = append(edgesPer[j], e)
		load[j]++
		places[e.Src].nodes[j] = true
		places[e.Dst].nodes[j] = true
	}
	leastLoaded := func(cands map[int32]bool) int32 {
		best := int32(-1)
		//gxlint:ordered the (load, smallest id) tie-break picks a unique winner under any visit order
		for j := range cands {
			if best < 0 || load[j] < load[best] || (load[j] == load[best] && j < best) {
				best = j
			}
		}
		return best
	}

	var edges []graph.Edge // g's edge list in source order
	for v := range graph.VertexID(g.NumVertices()) {
		g.OutEdges(v, func(d graph.VertexID, w float64) { edges = append(edges, graph.Edge{Src: v, Dst: d, Weight: w}) })
	}
	for _, e := range edges {
		sp, dp := places[e.Src].nodes, places[e.Dst].nodes
		// Greedy rules (PowerGraph §5.1): prefer a node holding both
		// endpoints, then one holding either, then the least-loaded.
		var both map[int32]bool
		//gxlint:ordered builds an order-free set intersection; selection happens later under a deterministic tie-break
		for j := range sp {
			if dp[j] {
				if both == nil {
					both = make(map[int32]bool)
				}
				both[j] = true
			}
		}
		switch {
		case len(both) > 0:
			assign(e, leastLoaded(both))
		case len(sp) > 0 || len(dp) > 0:
			cands := make(map[int32]bool, len(sp)+len(dp))
			for j := range sp {
				cands[j] = true
			}
			for j := range dp {
				cands[j] = true
			}
			assign(e, leastLoaded(cands))
		default:
			all := make(map[int32]bool, m)
			for j := 0; j < m; j++ {
				all[int32(j)] = true
			}
			assign(e, leastLoaded(all))
		}
	}

	// Master each vertex on the least-loaded node that holds a replica
	// (isolated vertices go to the globally least-loaded node).
	owner := make([]int32, g.NumVertices())
	masterLoad := make([]int64, m)
	for v := 0; v < g.NumVertices(); v++ {
		cands := places[v].nodes
		var best int32 = -1
		if len(cands) > 0 {
			//gxlint:ordered the (load, smallest id) tie-break picks a unique winner under any visit order
			for j := range cands {
				if best < 0 || masterLoad[j] < masterLoad[best] || (masterLoad[j] == masterLoad[best] && j < best) {
					best = j
				}
			}
		} else {
			for j := int32(0); j < int32(m); j++ {
				if best < 0 || masterLoad[j] < masterLoad[best] {
					best = j
				}
			}
		}
		owner[v] = best
		masterLoad[best]++
	}

	parts := make([]*graph.Partition, m)
	for j := 0; j < m; j++ {
		part := &graph.Partition{Node: j}
		for v := 0; v < g.NumVertices(); v++ {
			if owner[v] == int32(j) {
				part.Masters = append(part.Masters, graph.VertexID(v))
			}
		}
		// Group this node's edges by source.
		es := edgesPer[j]
		sort.SliceStable(es, func(a, b int) bool { return es[a].Src < es[b].Src })
		part.Edges = es
		// Mirrors: replicas on this node mastered elsewhere.
		for v := 0; v < g.NumVertices(); v++ {
			if places[v].nodes[int32(j)] && owner[v] != int32(j) {
				part.Mirrors++
			}
		}
		part.Internal = make([]bool, len(part.Masters))
		for i, v := range part.Masters {
			allLocal := true
			g.OutEdges(v, func(dst graph.VertexID, _ float64) {
				if owner[dst] != int32(j) {
					allLocal = false
				}
			})
			part.Internal[i] = allLocal
		}
		parts[j] = part
	}
	return oracleNewPartitioning(g, parts, owner)
}

// Tables materializes the agent-side data structures of §II-B for a
// partition: the vertex table (masters first, then any referenced
// non-masters), the edge table grouped by source, and the vertex-edge
// mapping table.
func oracleTables(part *graph.Partition, stride int) (*oracleVertexTable, *oracleEdgeTable, *oracleMappingTable) {
	ids := make([]graph.VertexID, len(part.Masters))
	copy(ids, part.Masters)
	seen := make(map[graph.VertexID]bool, len(ids))
	for _, v := range ids {
		seen[v] = true
	}
	// Sources must be rows of the vertex table for the mapping table to
	// address them; under vertex-cut a source may be mastered elsewhere.
	for _, e := range part.Edges {
		if !seen[e.Src] {
			seen[e.Src] = true
			ids = append(ids, e.Src)
		}
	}
	vt := newOracleVertexTable(ids, stride)
	et := newOracleEdgeTable(oracleRegroupBySource(part.Edges, vt))
	mt, err := oracleBuildMapping(vt, et)
	if err != nil {
		panic(fmt.Sprintf("graph: partition %d tables: %v", part.Node, err))
	}
	return vt, et, mt
}

// oracleRegroupBySource orders edges by their source's row in the vertex table,
// preserving relative order within a source.
func oracleRegroupBySource(edges []graph.Edge, vt *oracleVertexTable) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	copy(out, edges)
	sort.SliceStable(out, func(a, b int) bool {
		ra, _ := vt.Lookup(out[a].Src)
		rb, _ := vt.Lookup(out[b].Src)
		return ra < rb
	})
	return out
}

// oracleVertexTable stores the attributes of the vertices a distributed node
// references. Attributes are flat float64 rows of a fixed per-algorithm
// stride — the "bit data organization" of the data packager (§IV-B1):
// rows serialize to shared memory with no reflection and no copies beyond
// the row itself.
type oracleVertexTable struct {
	stride int
	ids    []graph.VertexID
	idx    map[graph.VertexID]int32
	attrs  []float64
}

// newOracleVertexTable builds a table over the given global vertex IDs, all
// attributes zero. IDs must be unique.
func newOracleVertexTable(ids []graph.VertexID, stride int) *oracleVertexTable {
	if stride <= 0 {
		panic(fmt.Sprintf("graph: vertex table stride %d", stride))
	}
	t := &oracleVertexTable{
		stride: stride,
		ids:    ids,
		idx:    make(map[graph.VertexID]int32, len(ids)),
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
func (t *oracleVertexTable) Len() int { return len(t.ids) }

// Stride returns the attribute width.
func (t *oracleVertexTable) Stride() int { return t.stride }

// ID returns the global vertex ID of row i.
func (t *oracleVertexTable) ID(i int) graph.VertexID { return t.ids[i] }

// Row returns the attribute slice of row i, aliasing table storage.
func (t *oracleVertexTable) Row(i int) []float64 {
	return t.attrs[i*t.stride : (i+1)*t.stride]
}

// Lookup maps a global vertex ID to its row index.
func (t *oracleVertexTable) Lookup(id graph.VertexID) (int, bool) {
	i, ok := t.idx[id]
	return int(i), ok
}

// Attrs exposes the backing attribute array (len = Len()*Stride()); block
// builders and the shm codec use it to avoid per-row copies.
func (t *oracleVertexTable) Attrs() []float64 { return t.attrs }

// oracleEdgeTable stores the edges assigned to a distributed node, grouped by
// source vertex so the mapping table can address "the outer edges of
// vertex v" as one contiguous range (§II-B: "to construct an edge block,
// an agent selects a vertex and retrieves its outer edges, with
// vertex-edge mapping table").
type oracleEdgeTable struct {
	edges []graph.Edge
}

// newOracleEdgeTable wraps an edge slice; callers hand over ownership.
func newOracleEdgeTable(edges []graph.Edge) *oracleEdgeTable { return &oracleEdgeTable{edges: edges} }

// Len returns the edge count.
func (t *oracleEdgeTable) Len() int { return len(t.edges) }

// At returns edge i.
func (t *oracleEdgeTable) At(i int) graph.Edge { return t.edges[i] }

// Slice returns edges [start,end), aliasing table storage.
func (t *oracleEdgeTable) Slice(start, end int) []graph.Edge { return t.edges[start:end] }

// oracleMappingTable is the vertex-edge mapping table: for each row of a vertex
// table it records the range of edge-table indices holding that vertex's
// outer edges.
type oracleMappingTable struct {
	off []int32 // len = vertices+1; edge-table range of vertex row v is [off[v], off[v+1])
}

// oracleBuildMapping constructs the mapping table for a vertex table and edge
// table. Edges must be grouped by source; sources must exist in the
// vertex table.
func oracleBuildMapping(vt *oracleVertexTable, et *oracleEdgeTable) (*oracleMappingTable, error) {
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
	return &oracleMappingTable{off: counts}, nil
}

// EdgeRange returns the edge-table index range of vertex row v.
func (m *oracleMappingTable) EdgeRange(v int) (start, end int) {
	return int(m.off[v]), int(m.off[v+1])
}

// oracleGenPlan derives, with maps, the gen plan newPartitioning builds
// beside the mapping table: per part, one run per source in order of first
// appearance, ending after that source's last edge; per vertex, its
// position in every part's Masters laid end to end in node order.
func oracleGenPlan(p *graph.Partitioning) (runEnds [][]int32, slot map[graph.VertexID]int32) {
	slot = make(map[graph.VertexID]int32)
	for _, part := range p.Parts {
		for _, v := range part.Masters {
			slot[v] = int32(len(slot))
		}
	}
	runEnds = make([][]int32, len(p.Parts))
	for j, part := range p.Parts {
		runOf := make(map[graph.VertexID]int)
		for i, e := range part.Edges {
			k, ok := runOf[e.Src]
			if !ok {
				k = len(runEnds[j])
				runOf[e.Src] = k
				runEnds[j] = append(runEnds[j], 0)
			}
			runEnds[j][k] = int32(i + 1)
		}
	}
	return runEnds, slot
}

// buildMirrors records, for every vertex, the non-owner nodes whose
// partitions reference it as an edge source — the replicas that must see
// attribute updates (non-empty only under vertex-cut).
func oracleBuildMirrors(p *graph.Partitioning) map[graph.VertexID][]int {
	mirrors := make(map[graph.VertexID][]int)
	for j, part := range p.Parts {
		seen := make(map[graph.VertexID]bool)
		for _, e := range part.Edges {
			if seen[e.Src] || int(p.Owner[e.Src]) == j {
				continue
			}
			seen[e.Src] = true
			mirrors[e.Src] = append(mirrors[e.Src], j)
		}
	}
	return mirrors
}

// oracleRangeOwner is EdgeCutByRange's owner assignment as the quantile
// walk alone computed it, on every graph.
func oracleRangeOwner(g *graph.Graph, m int) []int32 {
	owner := make([]int32, g.NumVertices())
	totalEdges := g.NumEdges()
	// Walk vertices in order, cutting when the running edge count passes
	// the next 1/m quantile.
	var acc int64
	node := int32(0)
	for v := 0; v < g.NumVertices(); v++ {
		if m > 1 {
			threshold := int64(node+1) * totalEdges / int64(m)
			if acc >= threshold && int(node) < m-1 {
				node++
			}
		}
		owner[v] = node
		acc += int64(g.OutDegree(graph.VertexID(v)))
	}
	return owner
}
