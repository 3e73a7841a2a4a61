package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file implements the graph partitioners the upper systems use.
// GraphX-class engines hash vertices to nodes (edge-cut); PowerGraph-class
// engines place edges greedily (vertex-cut); and a locality-aware range
// partitioner models the clustered partitions that make synchronization
// skipping fire on real graphs (§V-B3: "for real datasets, there tends to
// be more clusters of dense partitions, leading to better partitioning
// results that triggers synchronization skipping").

// Partition is the share of a graph assigned to one distributed node. The
// partitioner fills Masters, Edges, Internal and Mirrors; newPartitioning
// derives the rest — the agent-side table layout of §II-B — from them.
type Partition struct {
	Node int
	// Masters are the vertices this node owns, ascending.
	Masters []VertexID
	// Edges are the edges assigned to this node, grouped by source. It is
	// the node's edge table as-is, and its order is the order the node
	// folds messages in: floating-point results depend on it.
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
	// Sources are the vertices mastered elsewhere that this node's edges
	// leave from, in order of first appearance in Edges (empty under
	// edge-cut). The node's vertex table lists Masters, then Sources.
	Sources []VertexID
	// RowEdges is the vertex-edge mapping table: vertex-table row r's
	// outer edges are Edges[RowEdges[r][0]:RowEdges[r][1]].
	RowEdges [][2]int32
	// Endpoints counts the distinct vertices Edges references.
	Endpoints int

	in *Partitioning
}

// Partitioning is a complete assignment of a graph to m nodes, with
// everything a run derives from the assignment alone. Owner and MasterRow
// together are the message routing index: a message for vertex v belongs
// in row MasterRow[v] of node Owner[v]'s buffer. MirrorOff and MirrorNodes
// are the replica index. All of it is built once, by newPartitioning, and
// only read afterwards — by every run, agent and estimate over the
// partitioning, concurrently.
type Partitioning struct {
	Graph *Graph
	Parts []*Partition
	// Owner[v] is the node mastering vertex v.
	Owner []int32
	// MasterRow[v] is v's index in Parts[Owner[v]].Masters.
	MasterRow []int32
	// MirrorNodes[MirrorOff[v]:MirrorOff[v+1]] are the nodes, ascending,
	// that list v in Sources: the replicas that must see v's attribute
	// updates (non-empty only under vertex-cut).
	MirrorOff   []int32
	MirrorNodes []int32
	// mirrorRow[k] is v's vertex-table row on node MirrorNodes[k].
	mirrorRow []int32
}

// newPartitioning assembles a partitioning from finished parts — Masters,
// Edges (grouped by source), Internal and Mirrors set — deriving the
// routing index, the replica index and each part's table layout.
func newPartitioning(g *Graph, parts []*Partition, owner []int32) *Partitioning {
	n := len(owner)
	p := &Partitioning{
		Graph: g, Parts: parts, Owner: owner,
		MasterRow: make([]int32, n),
		MirrorOff: make([]int32, n+1),
	}
	// Edges are grouped by source, so a part's edges leave a source in one
	// run: a replica is counted, and later filled in, where its run starts.
	sources := make([]int, len(parts))
	for j, part := range parts {
		for mi, v := range part.Masters {
			p.MasterRow[v] = int32(mi)
		}
		for i, e := range part.Edges {
			if owner[e.Src] != int32(j) && (i == 0 || part.Edges[i-1].Src != e.Src) {
				sources[j]++
				p.MirrorOff[e.Src+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		p.MirrorOff[v+1] += p.MirrorOff[v]
	}
	p.MirrorNodes = make([]int32, p.MirrorOff[n])
	p.mirrorRow = make([]int32, p.MirrorOff[n])
	fill := slices.Clone(p.MirrorOff[:n]) // next free replica slot per vertex
	seenOn := make([]int32, n)            // 1 + the last node whose edges referenced the vertex
	for j, part := range parts {
		part.in = p
		part.Sources = make([]VertexID, 0, sources[j])
		part.RowEdges = make([][2]int32, len(part.Masters)+sources[j])
		for i, e := range part.Edges {
			start := i == 0 || part.Edges[i-1].Src != e.Src
			row := int(p.MasterRow[e.Src])
			if owner[e.Src] != int32(j) {
				if start {
					part.Sources = append(part.Sources, e.Src)
				}
				row = len(part.Masters) + len(part.Sources) - 1 // the latest source's
				if start {
					p.MirrorNodes[fill[e.Src]], p.mirrorRow[fill[e.Src]] = int32(j), int32(row)
					fill[e.Src]++
				}
			}
			if start {
				part.RowEdges[row][0] = int32(i)
			}
			part.RowEdges[row][1] = int32(i + 1)
			for _, v := range [2]VertexID{e.Src, e.Dst} {
				if seenOn[v] != int32(j+1) {
					seenOn[v] = int32(j + 1)
					part.Endpoints++
				}
			}
		}
	}
	return p
}

// NumNodes returns the node count.
func (p *Partitioning) NumNodes() int { return len(p.Parts) }

// MirrorsOf returns the nodes, ascending, holding v as a non-master source.
func (p *Partitioning) MirrorsOf(v VertexID) []int32 {
	return p.MirrorNodes[p.MirrorOff[v]:p.MirrorOff[v+1]]
}

// row returns v's row in node j's vertex table, if the node holds one: a
// master's through the routing index, a source's through the replica index.
func (p *Partitioning) row(j int, v VertexID) (int, bool) {
	if int(p.Owner[v]) == j {
		return int(p.MasterRow[v]), true
	}
	for k := p.MirrorOff[v]; k < p.MirrorOff[v+1]; k++ {
		if int(p.MirrorNodes[k]) == j {
			return int(p.mirrorRow[k]), true
		}
	}
	return 0, false
}

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
// edge assigned exactly once, Internal flags correct, and the derived
// layout consistent with all of it (validateLayout) — which includes the
// edges being grouped by source.
func (p *Partitioning) Validate() error {
	g := p.Graph
	seenMaster := make([]bool, g.NumVertices())
	var edgeCount int64
	replicas := 0
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
		if err := p.validateLayout(part); err != nil {
			return err
		}
		replicas += len(part.Sources)
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
		for ms := p.MirrorsOf(VertexID(v)); len(ms) > 1; ms = ms[1:] {
			if ms[0] >= ms[1] {
				return fmt.Errorf("partition: replica nodes of vertex %d not ascending", v)
			}
		}
	}
	if edgeCount != g.NumEdges() {
		return fmt.Errorf("partition: %d edges assigned, graph has %d", edgeCount, g.NumEdges())
	}
	if replicas != len(p.MirrorNodes) {
		return fmt.Errorf("partition: replica index lists %d replicas, parts hold %d sources",
			len(p.MirrorNodes), replicas)
	}
	return nil
}

// validateLayout checks one part's table layout against its Masters and
// Edges and against the replica index: every source a distinct row, every
// edge inside its source's row range and the ranges covering nothing else
// — so a source's edges are contiguous — and the endpoint count right.
func (p *Partitioning) validateLayout(part *Partition) error {
	if len(part.RowEdges) != len(part.Masters)+len(part.Sources) {
		return fmt.Errorf("partition %d: %d mapping rows for %d masters + %d sources",
			part.Node, len(part.RowEdges), len(part.Masters), len(part.Sources))
	}
	for i, v := range part.Sources {
		if row, ok := p.row(part.Node, v); int(p.Owner[v]) == part.Node || !ok || row != len(part.Masters)+i {
			return fmt.Errorf("partition %d: source %d (vertex %d) is not replica row %d",
				part.Node, i, v, len(part.Masters)+i)
		}
	}
	covered := 0
	for _, r := range part.RowEdges {
		covered += int(r[1] - r[0])
	}
	endpoint := make([]bool, len(p.Owner))
	endpoints := 0
	for i, e := range part.Edges {
		row, ok := p.row(part.Node, e.Src)
		if !ok || row >= len(part.RowEdges) || i < int(part.RowEdges[row][0]) || i >= int(part.RowEdges[row][1]) {
			return fmt.Errorf("partition %d: edge %d outside the mapping range of source %d (edges not grouped by source?)",
				part.Node, i, e.Src)
		}
		for _, v := range [2]VertexID{e.Src, e.Dst} {
			if !endpoint[v] {
				endpoint[v] = true
				endpoints++
			}
		}
	}
	if covered != len(part.Edges) || endpoints != part.Endpoints {
		return fmt.Errorf("partition %d: mapping table covers %d of %d edges, %d endpoints recorded of %d",
			part.Node, covered, len(part.Edges), part.Endpoints, endpoints)
	}
	return nil
}

// finishEdgeCut fills the derived fields of an edge-cut partitioning in
// which node owners are already chosen and each node receives exactly the
// out-edges of its masters.
func finishEdgeCut(g *Graph, owner []int32, m int) *Partitioning {
	masters, edges := make([]int, m), make([]int, m)
	for v, j := range owner {
		masters[j]++
		edges[j] += g.OutDegree(VertexID(v))
	}
	parts := make([]*Partition, m)
	for j := range parts {
		parts[j] = &Partition{
			Node:     j,
			Masters:  make([]VertexID, 0, masters[j]),
			Edges:    make([]Edge, 0, edges[j]),
			Internal: make([]bool, masters[j]),
			// Mirrors stays 0: an edge-cut ships messages, not replicas.
		}
	}
	for v, j := range owner {
		part := parts[j]
		allLocal := true
		g.OutEdges(VertexID(v), func(dst VertexID, w float64) {
			part.Edges = append(part.Edges, Edge{Src: VertexID(v), Dst: dst, Weight: w})
			if owner[dst] != j {
				allLocal = false
			}
		})
		part.Internal[len(part.Masters)] = allLocal
		part.Masters = append(part.Masters, VertexID(v))
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
	n := g.NumVertices()
	// A vertex's replica set is a node bitset: words uint64s per vertex.
	words := (m + 63) / 64
	places := make([]uint64, n*words)
	all := make([]uint64, words)
	for j := 0; j < m; j++ {
		all[j/64] |= 1 << (j % 64)
	}
	// leastLoaded scans the set in ascending node order and moves only on a
	// strictly smaller load, so ties go to the smallest id; -1 if empty.
	leastLoaded := func(set []uint64, load []int64) int32 {
		best := int32(-1)
		for wi, word := range set {
			for ; word != 0; word &= word - 1 {
				j := int32(wi*64 + bits.TrailingZeros64(word))
				if best < 0 || load[j] < load[best] {
					best = j
				}
			}
		}
		return best
	}

	// Place the edges in source order (the out-CSR's), remembering each
	// one's node: a node's edges are then that order's subsequence, grouped
	// by source already.
	outOff, outDst, outW, _, _, _ := g.CSR()
	node := make([]int32, len(outDst))
	load := make([]int64, m)
	cands := make([]uint64, words)
	for src := 0; src < n; src++ {
		sp := places[src*words : (src+1)*words]
		for i := outOff[src]; i < outOff[src+1]; i++ {
			dp := places[int(outDst[i])*words : (int(outDst[i])+1)*words]
			// Greedy rules (PowerGraph §5.1): prefer a node holding both
			// endpoints, then one holding either, then the least-loaded.
			for w := range cands {
				cands[w] = sp[w] & dp[w]
			}
			j := leastLoaded(cands, load)
			if j < 0 {
				for w := range cands {
					cands[w] = sp[w] | dp[w]
				}
				if j = leastLoaded(cands, load); j < 0 {
					j = leastLoaded(all, load)
				}
			}
			node[i] = j
			load[j]++
			sp[j/64] |= 1 << (j % 64)
			dp[j/64] |= 1 << (j % 64)
		}
	}

	// Master each vertex on the least-loaded node that holds a replica
	// (isolated vertices go to the globally least-loaded node).
	owner := make([]int32, n)
	masterLoad := make([]int64, m)
	for v := range owner {
		if owner[v] = leastLoaded(places[v*words:(v+1)*words], masterLoad); owner[v] < 0 {
			owner[v] = leastLoaded(all, masterLoad)
		}
		masterLoad[owner[v]]++
	}

	parts := make([]*Partition, m)
	for j := range parts {
		parts[j] = &Partition{
			Node:     j,
			Masters:  make([]VertexID, 0, masterLoad[j]),
			Edges:    make([]Edge, 0, load[j]),
			Internal: make([]bool, masterLoad[j]),
		}
	}
	for v, j := range owner {
		part := parts[j]
		allLocal := true
		for i := outOff[v]; i < outOff[v+1]; i++ {
			e := Edge{Src: VertexID(v), Dst: outDst[i], Weight: outW[i]}
			parts[node[i]].Edges = append(parts[node[i]].Edges, e)
			if owner[e.Dst] != j {
				allLocal = false
			}
		}
		part.Internal[len(part.Masters)] = allLocal
		part.Masters = append(part.Masters, VertexID(v))
		// Mirrors: this vertex's replicas on the nodes that do not master it.
		for wi, word := range places[v*words : (v+1)*words] {
			for ; word != 0; word &= word - 1 {
				if k := wi*64 + bits.TrailingZeros64(word); k != int(j) {
					parts[k].Mirrors++
				}
			}
		}
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

// Tables returns the agent-side data structures of §II-B for a partition:
// a zeroed vertex table (masters first, then Sources), and the edge table
// and vertex-edge mapping table, which are views of the partition itself
// shared by every agent over it.
func (part *Partition) Tables(stride int) (*VertexTable, EdgeTable, MappingTable) {
	if stride <= 0 {
		panic(fmt.Sprintf("graph: vertex table stride %d", stride))
	}
	vt := &VertexTable{part: part, stride: stride, attrs: make([]float64, len(part.RowEdges)*stride)}
	return vt, EdgeTable(part.Edges), MappingTable(part.RowEdges)
}
