package graph

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the graph partitioners the upper systems use.
// GraphX-class engines hash vertices to nodes (edge-cut); PowerGraph-class
// engines place edges greedily (vertex-cut); and a locality-aware range
// partitioner models the clustered partitions that make synchronization
// skipping fire on real graphs (§V-B3: "for real datasets, there tends to
// be more clusters of dense partitions, leading to better partitioning
// results that triggers synchronization skipping").

// Partition is the share of a graph assigned to one distributed node.
type Partition struct {
	Node int
	// Masters are the vertices this node owns, ascending.
	Masters []VertexID
	// Edges are the edges assigned to this node, grouped by source.
	Edges []Edge
	// Internal[i] reports whether master i's entire out-neighbourhood is
	// owned by this node — the §III-B3 skipping condition ("an agent
	// checks if each updated vertex and its outer edges are in the same
	// node").
	Internal []bool
	// Mirrors counts vertices referenced by this node's edges but mastered
	// elsewhere (vertex-cut replication; zero for edge-cut by
	// construction of message routing).
	Mirrors int
}

// Partitioning is a complete assignment of a graph to m nodes. Owner and
// MasterRow together are the message routing index: a message for vertex
// v belongs in row MasterRow[v] of node Owner[v]'s buffer. Both are built
// once, here, and read by every run and agent over the partitioning.
type Partitioning struct {
	Graph *Graph
	Parts []*Partition
	// Owner[v] is the node mastering vertex v.
	Owner []int32
	// MasterRow[v] is v's index in Parts[Owner[v]].Masters.
	MasterRow []int32
}

// newPartitioning assembles a partitioning from finished parts, deriving
// the master-row half of the routing index.
func newPartitioning(g *Graph, parts []*Partition, owner []int32) *Partitioning {
	masterRow := make([]int32, len(owner))
	for _, part := range parts {
		for mi, v := range part.Masters {
			masterRow[v] = int32(mi)
		}
	}
	return &Partitioning{Graph: g, Parts: parts, Owner: owner, MasterRow: masterRow}
}

// NumNodes returns the node count.
func (p *Partitioning) NumNodes() int { return len(p.Parts) }

// ReplicationFactor returns the average number of nodes a vertex appears
// on (1.0 for a pure edge-cut; >1 under vertex-cut).
func (p *Partitioning) ReplicationFactor() float64 {
	if p.Graph.NumVertices() == 0 {
		return 0
	}
	total := 0
	for _, part := range p.Parts {
		total += len(part.Masters) + part.Mirrors
	}
	return float64(total) / float64(p.Graph.NumVertices())
}

// Validate checks the structural invariants every partitioning must obey:
// each vertex mastered exactly once and indexed by Owner/MasterRow, each
// edge assigned exactly once, edges grouped by source, Internal flags
// correct.
func (p *Partitioning) Validate() error {
	g := p.Graph
	seenMaster := make([]bool, g.NumVertices())
	var edgeCount int64
	for _, part := range p.Parts {
		for mi, v := range part.Masters {
			if seenMaster[v] {
				return fmt.Errorf("partition: vertex %d mastered twice", v)
			}
			seenMaster[v] = true
			if p.Owner[v] != int32(part.Node) {
				return fmt.Errorf("partition: owner[%d]=%d but mastered by %d",
					v, p.Owner[v], part.Node)
			}
			if p.MasterRow[v] != int32(mi) {
				return fmt.Errorf("partition: masterRow[%d]=%d but master %d of node %d",
					v, p.MasterRow[v], mi, part.Node)
			}
		}
		lastSrc := VertexID(0)
		seenSrc := make(map[VertexID]bool)
		for i, e := range part.Edges {
			if i > 0 && e.Src != lastSrc {
				if seenSrc[e.Src] {
					return fmt.Errorf("partition %d: edges not grouped by source", part.Node)
				}
			}
			seenSrc[e.Src] = true
			lastSrc = e.Src
		}
		edgeCount += int64(len(part.Edges))
		if len(part.Internal) != len(part.Masters) {
			return fmt.Errorf("partition %d: internal flags %d != masters %d",
				part.Node, len(part.Internal), len(part.Masters))
		}
		for i, v := range part.Masters {
			allLocal := true
			g.OutEdges(v, func(dst VertexID, _ float64) {
				if p.Owner[dst] != int32(part.Node) {
					allLocal = false
				}
			})
			if part.Internal[i] != allLocal {
				return fmt.Errorf("partition %d: internal[%d] (vertex %d) = %v, want %v",
					part.Node, i, v, part.Internal[i], allLocal)
			}
		}
	}
	for v, ok := range seenMaster {
		if !ok {
			return fmt.Errorf("partition: vertex %d mastered nowhere", v)
		}
	}
	if edgeCount != g.NumEdges() {
		return fmt.Errorf("partition: %d edges assigned, graph has %d", edgeCount, g.NumEdges())
	}
	return nil
}

// finishEdgeCut fills the derived fields of an edge-cut partitioning in
// which node owners are already chosen and each node receives exactly the
// out-edges of its masters.
func finishEdgeCut(g *Graph, owner []int32, m int) *Partitioning {
	parts := make([]*Partition, m)
	for j := range parts {
		parts[j] = &Partition{Node: j}
	}
	for v := 0; v < g.NumVertices(); v++ {
		j := owner[v]
		parts[j].Masters = append(parts[j].Masters, VertexID(v))
	}
	for j, part := range parts {
		part.Internal = make([]bool, len(part.Masters))
		mirror := make(map[VertexID]bool)
		for i, v := range part.Masters {
			allLocal := true
			g.OutEdges(v, func(dst VertexID, w float64) {
				part.Edges = append(part.Edges, Edge{Src: v, Dst: dst, Weight: w})
				if owner[dst] != int32(j) {
					allLocal = false
					mirror[dst] = true
				}
			})
			part.Internal[i] = allLocal
		}
		part.Mirrors = 0 // edge-cut ships messages, not replicas
		_ = mirror
	}
	return newPartitioning(g, parts, owner)
}

// EdgeCutByHash spreads vertices over m nodes by a multiplicative hash —
// the GraphX default ("RandomVertexCut"-style even spread, destroying
// locality). Each node gets the out-edges of its masters.
func EdgeCutByHash(g *Graph, m int) *Partitioning {
	if m <= 0 {
		panic(fmt.Sprintf("graph: %d partitions", m))
	}
	owner := make([]int32, g.NumVertices())
	for v := range owner {
		owner[v] = int32((uint64(v) * 0x9E3779B97F4A7C15 >> 33) % uint64(m))
	}
	return finishEdgeCut(g, owner, m)
}

// EdgeCutByRange assigns contiguous vertex ranges to nodes, balancing by
// out-edge counts. On graphs whose vertex order correlates with structure
// (generated road networks, clustered social stand-ins) this preserves
// locality — the precondition for synchronization skipping.
func EdgeCutByRange(g *Graph, m int) *Partitioning {
	if m <= 0 {
		panic(fmt.Sprintf("graph: %d partitions", m))
	}
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
		acc += int64(g.OutDegree(VertexID(v)))
	}
	return finishEdgeCut(g, owner, m)
}

// GreedyVertexCut implements the PowerGraph greedy edge-placement
// heuristic: each edge goes to a node already holding one of its
// endpoints where possible, breaking ties by load; vertices are mastered
// on the least-loaded node that holds them.
func GreedyVertexCut(g *Graph, m int) *Partitioning {
	if m <= 0 {
		panic(fmt.Sprintf("graph: %d partitions", m))
	}
	type vplace struct{ nodes map[int32]bool }
	places := make([]vplace, g.NumVertices())
	for v := range places {
		places[v].nodes = make(map[int32]bool, 2)
	}
	load := make([]int64, m)
	edgesPer := make([][]Edge, m)

	assign := func(e Edge, j int32) {
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

	for _, e := range g.Edges() {
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

	parts := make([]*Partition, m)
	for j := 0; j < m; j++ {
		part := &Partition{Node: j}
		for v := 0; v < g.NumVertices(); v++ {
			if owner[v] == int32(j) {
				part.Masters = append(part.Masters, VertexID(v))
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
			g.OutEdges(v, func(dst VertexID, _ float64) {
				if owner[dst] != int32(j) {
					allLocal = false
				}
			})
			part.Internal[i] = allLocal
		}
		parts[j] = part
	}
	return newPartitioning(g, parts, owner)
}

// PartitionBySizes assigns contiguous vertex ranges so that node j
// receives approximately fractions[j] of the graph's edges. The workload
// balancer (§III-C case 1) uses it to realize a target {d_j} split.
func PartitionBySizes(g *Graph, fractions []float64) *Partitioning {
	m := len(fractions)
	if m == 0 {
		panic("graph: no fractions")
	}
	var sum float64
	for _, f := range fractions {
		// NaN slips past a plain `f < 0` guard and then poisons sum,
		// turning every threshold into int64(NaN) garbage — reject all
		// non-finite fractions up front instead.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			panic(fmt.Sprintf("graph: non-finite fraction %v", f))
		}
		if f < 0 {
			panic(fmt.Sprintf("graph: negative fraction %v", f))
		}
		sum += f
	}
	if sum <= 0 {
		panic("graph: fractions sum to zero")
	}
	total := g.NumEdges()
	// Cumulative edge thresholds per node.
	thresholds := make([]int64, m)
	var cum float64
	for j, f := range fractions {
		cum += f / sum
		thresholds[j] = int64(cum * float64(total))
	}
	thresholds[m-1] = total

	owner := make([]int32, g.NumVertices())
	var acc int64
	node := int32(0)
	for v := 0; v < g.NumVertices(); v++ {
		for node < int32(m-1) && acc >= thresholds[node] {
			node++
		}
		owner[v] = node
		acc += int64(g.OutDegree(VertexID(v)))
	}
	return finishEdgeCut(g, owner, m)
}

// Tables materializes the agent-side data structures of §II-B for a
// partition: the vertex table (masters first, then any referenced
// non-masters), the edge table grouped by source, and the vertex-edge
// mapping table.
func (part *Partition) Tables(stride int) (*VertexTable, *EdgeTable, *MappingTable) {
	ids := make([]VertexID, len(part.Masters))
	copy(ids, part.Masters)
	seen := make(map[VertexID]bool, len(ids))
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
	vt := NewVertexTable(ids, stride)
	et := NewEdgeTable(regroupBySource(part.Edges, vt))
	mt, err := BuildMapping(vt, et)
	if err != nil {
		panic(fmt.Sprintf("graph: partition %d tables: %v", part.Node, err))
	}
	return vt, et, mt
}

// regroupBySource orders edges by their source's row in the vertex table,
// preserving relative order within a source.
func regroupBySource(edges []Edge, vt *VertexTable) []Edge {
	out := make([]Edge, len(edges))
	copy(out, edges)
	sort.SliceStable(out, func(a, b int) bool {
		ra, _ := vt.Lookup(out[a].Src)
		rb, _ := vt.Lookup(out[b].Src)
		return ra < rb
	})
	return out
}
