// Package graph provides the graph data structures that every layer of
// the reproduction shares: an immutable CSR topology, the agent-side
// vertex/edge tables with the vertex-edge mapping table of §II-B, edge
// triplets (the homogeneous intermediate unit of the pipeline, §III-A2a),
// and the partitioners the upper systems use to spread a graph over
// distributed nodes.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// VertexID identifies a vertex. Graphs in this reproduction are bounded
// by host memory, so 32 bits suffice (the largest stand-in dataset has
// ~110k vertices; the paper's UK-2007 has 110M, which would also fit).
type VertexID uint32

// Edge is one directed edge with a weight. Unweighted datasets load with
// weight 1.
type Edge struct {
	Src, Dst VertexID
	Weight   float64
}

// Graph is an immutable directed graph in CSR (compressed sparse row)
// form, with both out- and in-adjacency so that BSP engines (push along
// out-edges) and GAS engines (gather along in-edges) share one structure.
type Graph struct {
	numV int

	// Out-CSR: edges sorted by source.
	outOff []int64
	outDst []VertexID
	outW   []float64

	// In-CSR: edges sorted by destination.
	inOff []int64
	inSrc []VertexID
	inW   []float64
}

// FromEdges builds a graph over vertices [0, numV) from an edge list.
// Edges referencing vertices outside the range are rejected.
func FromEdges(numV int, edges []Edge) (*Graph, error) {
	if numV < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numV)
	}
	g := &Graph{
		numV:   numV,
		outOff: make([]int64, numV+1),
		inOff:  make([]int64, numV+1),
		outDst: make([]VertexID, len(edges)),
		outW:   make([]float64, len(edges)),
		inSrc:  make([]VertexID, len(edges)),
		inW:    make([]float64, len(edges)),
	}
	for i, e := range edges {
		if int(e.Src) >= numV || int(e.Dst) >= numV {
			return nil, fmt.Errorf("graph: edge %d (%d->%d) outside vertex range [0,%d)",
				i, e.Src, e.Dst, numV)
		}
		g.outOff[e.Src+1]++
		g.inOff[e.Dst+1]++
	}
	for v := 0; v < numV; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	// The offset arrays are their own fill cursors: off[v] advances through
	// v's range, and shiftBack restores it.
	for _, e := range edges {
		o := g.outOff[e.Src]
		g.outDst[o] = e.Dst
		g.outW[o] = e.Weight
		g.outOff[e.Src]++

		i := g.inOff[e.Dst]
		g.inSrc[i] = e.Src
		g.inW[i] = e.Weight
		g.inOff[e.Dst]++
	}
	shiftBack(g.outOff)
	shiftBack(g.inOff)
	return g, nil
}

// shiftBack restores a CSR offset array that was used as its own fill
// cursors: once every range is full, off[v] has advanced to what off[v+1]
// was, so the original is the same values one slot to the right.
func shiftBack(off []int64) {
	copy(off[1:], off)
	off[0] = 0
}

// MustFromEdges is FromEdges for known-good constant inputs in tests and
// examples; it panics on error.
func MustFromEdges(numV int, edges []Edge) *Graph {
	g, err := FromEdges(numV, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// CSR exposes the six raw arrays backing the graph — the out-CSR
// (offsets, destinations, weights) and the in-CSR (offsets, sources,
// weights). The slices alias internal storage and must not be mutated;
// the snapshot codec in internal/gen/ingest serializes them verbatim so
// a loaded graph is bit-identical to the saved one (including the
// in-CSR tie order, which FromEdges derives from edge input order).
func (g *Graph) CSR() (outOff []int64, outDst []VertexID, outW []float64,
	inOff []int64, inSrc []VertexID, inW []float64) {
	return g.outOff, g.outDst, g.outW, g.inOff, g.inSrc, g.inW
}

// FromCSR adopts pre-built CSR arrays as a graph after validating every
// structural invariant a corrupted or hostile snapshot could break:
// offset arrays of length numV+1 starting at 0, non-decreasing and
// ending at the edge count; out- and in-CSR holding the same number of
// edges; every vertex id inside [0, numV); and matching per-vertex
// degrees between the two orientations (the in-degree of v equals the
// number of out-edges targeting v, and vice versa). The slices are
// retained, not copied — callers hand over ownership.
func FromCSR(numV int, outOff []int64, outDst []VertexID, outW []float64,
	inOff []int64, inSrc []VertexID, inW []float64) (*Graph, error) {
	if numV < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numV)
	}
	if len(outDst) != len(inSrc) {
		return nil, fmt.Errorf("graph: out-CSR has %d edges, in-CSR %d", len(outDst), len(inSrc))
	}
	numE := int64(len(outDst))
	checkOff := func(orient string, off []int64) error {
		if len(off) != numV+1 {
			return fmt.Errorf("graph: %s offsets have %d entries for %d vertices", orient, len(off), numV)
		}
		if off[0] != 0 {
			return fmt.Errorf("graph: %s offsets start at %d, want 0", orient, off[0])
		}
		for v := 0; v < numV; v++ {
			if off[v+1] < off[v] {
				return fmt.Errorf("graph: %s offsets decrease at vertex %d", orient, v)
			}
		}
		if off[numV] != numE {
			return fmt.Errorf("graph: %s offsets end at %d for %d edges", orient, off[numV], numE)
		}
		return nil
	}
	if err := checkOff("out", outOff); err != nil {
		return nil, err
	}
	if err := checkOff("in", inOff); err != nil {
		return nil, err
	}
	if len(outW) != int(numE) || len(inW) != int(numE) {
		return nil, fmt.Errorf("graph: %d/%d weights for %d edges", len(outW), len(inW), numE)
	}
	// Cross-check the orientations degree by degree: outDst occurrences
	// must reproduce the in-degrees and inSrc occurrences the out-degrees.
	deg := make([]int64, numV)
	for _, d := range outDst {
		if int(d) >= numV {
			return nil, fmt.Errorf("graph: edge destination %d outside [0,%d)", d, numV)
		}
		deg[d]++
	}
	for v := 0; v < numV; v++ {
		if deg[v] != inOff[v+1]-inOff[v] {
			return nil, fmt.Errorf("graph: vertex %d has %d incoming edges but in-degree %d",
				v, deg[v], inOff[v+1]-inOff[v])
		}
		deg[v] = 0
	}
	for _, s := range inSrc {
		if int(s) >= numV {
			return nil, fmt.Errorf("graph: edge source %d outside [0,%d)", s, numV)
		}
		deg[s]++
	}
	for v := 0; v < numV; v++ {
		if deg[v] != outOff[v+1]-outOff[v] {
			return nil, fmt.Errorf("graph: vertex %d has %d outgoing edges but out-degree %d",
				v, deg[v], outOff[v+1]-outOff[v])
		}
	}
	return &Graph{
		numV:   numV,
		outOff: outOff, outDst: outDst, outW: outW,
		inOff: inOff, inSrc: inSrc, inW: inW,
	}, nil
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.numV }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int64 { return int64(len(g.outDst)) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// OutEdges calls fn for every out-edge of v.
func (g *Graph) OutEdges(v VertexID, fn func(dst VertexID, w float64)) {
	for i := g.outOff[v]; i < g.outOff[v+1]; i++ {
		fn(g.outDst[i], g.outW[i])
	}
}

// InEdges calls fn for every in-edge of v.
func (g *Graph) InEdges(v VertexID, fn func(src VertexID, w float64)) {
	for i := g.inOff[v]; i < g.inOff[v+1]; i++ {
		fn(g.inSrc[i], g.inW[i])
	}
}

// Stats summarizes graph shape; the Table I reproduction prints it.
type Stats struct {
	Vertices  int
	Edges     int64
	AvgDegree float64
	MaxDegree int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Vertices: g.numV, Edges: g.NumEdges()}
	if g.numV > 0 {
		s.AvgDegree = float64(s.Edges) / float64(g.numV)
	}
	for v := 0; v < g.numV; v++ {
		if d := g.OutDegree(VertexID(v)); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}

// MemoryFootprint estimates the bytes needed to hold the graph plus one
// attribute set of the given stride on an accelerator: CSR arrays + vertex
// attributes. The Fig 9b OOM checks use it.
func (g *Graph) MemoryFootprint(attrWidth int) int64 {
	e := g.NumEdges()
	v := int64(g.numV)
	// out CSR only on device (engines ship the orientation they need):
	// offsets (8B/vertex), dst (4B/edge), weight (8B/edge), attrs.
	return 8*v + 12*e + 8*v*int64(attrWidth)
}

// WriteEdgeList writes the graph in the text format ingest.ParseEdgeList
// reads: a "src dst" line per out-edge in source order, " weight" added
// unless it is 1 — what fmt's "%d %d %g" prints, built in one buffer.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for v := 0; v < g.numV; v++ {
		for i := g.outOff[v]; i < g.outOff[v+1]; i++ {
			line = strconv.AppendInt(line[:0], int64(v), 10)
			line = append(line, ' ')
			line = strconv.AppendUint(line, uint64(g.outDst[i]), 10)
			if wt := g.outW[i]; wt != 1.0 {
				line = append(line, ' ')
				line = strconv.AppendFloat(line, wt, 'g', -1, 64)
			}
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
