package graph

import "fmt"

// Validate checks the structural invariants every partitioning must obey:
// each vertex mastered exactly once and indexed by Owner/MasterRow/Slot,
// each edge assigned exactly once, Internal flags correct, and the derived
// layout consistent with all of it (validateLayout) — which includes the
// edges being grouped by source.
func (p *Partitioning) Validate() error {
	g := p.Graph
	seenMaster := make([]bool, g.NumVertices())
	var edgeCount int64
	replicas := 0
	base := int32(0) // the master count of the nodes before this one
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
			if p.Slot[v] != base+int32(mi) {
				return fmt.Errorf("partition: slot[%d]=%d but master %d of node %d is slot %d",
					v, p.Slot[v], mi, part.Node, base+int32(mi))
			}
		}
		base += int32(len(part.Masters))
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
// — so a source's edges are contiguous — the endpoint count right, and
// the run index one run per source (validateRuns).
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
	return validateRuns(part)
}

// validateRuns checks a part's source-run index against its Edges and
// RowEdges, which validateLayout has already checked: the ends strictly
// increasing up to len(Edges), every run a single source, and one run per
// vertex-table row with edges — so, the rows' ranges being disjoint and
// covering every edge, exactly one run per source.
func validateRuns(part *Partition) error {
	rows := 0
	for _, r := range part.RowEdges {
		if r[1] > r[0] {
			rows++
		}
	}
	if len(part.RunEnds) != rows {
		return fmt.Errorf("partition %d: %d source runs for %d rows with edges",
			part.Node, len(part.RunEnds), rows)
	}
	start := int32(0)
	for k, end := range part.RunEnds {
		if end <= start || int(end) > len(part.Edges) {
			return fmt.Errorf("partition %d: run %d ends at %d, after %d and within %d edges",
				part.Node, k, end, start, len(part.Edges))
		}
		src := part.Edges[start].Src
		for _, e := range part.Edges[start+1 : end] {
			if e.Src != src {
				return fmt.Errorf("partition %d: run %d leaves sources %d and %d", part.Node, k, src, e.Src)
			}
		}
		start = end
	}
	if int(start) != len(part.Edges) {
		return fmt.Errorf("partition %d: runs end at edge %d of %d", part.Node, start, len(part.Edges))
	}
	return nil
}
