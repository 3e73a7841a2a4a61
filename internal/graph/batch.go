package graph

import (
	"fmt"
	"slices"
)

// EdgeBatch is one timestamped set of graph mutations: edges to add and
// edges to remove, applied together at a batch boundary. Batches are the
// unit of the dynamic-graph scenario axis — a stream of them turns a
// static dataset into an evolving one.
type EdgeBatch struct {
	// Time orders batches within a stream (validated strictly increasing
	// by the stream codec); ApplyBatch itself does not interpret it.
	Time int64
	// Adds are appended to the graph. Destinations or sources beyond the
	// current vertex range grow it (new vertices start isolated), within
	// the bound GrowVertices states.
	Adds []Edge
	// Removes name existing (src, dst) pairs; every parallel edge with
	// that endpoint pair is removed. The Weight field is ignored.
	Removes []Edge
}

// Empty reports whether the batch mutates nothing.
func (b EdgeBatch) Empty() bool { return len(b.Adds) == 0 && len(b.Removes) == 0 }

// GrowVertices returns the vertex count of a numV-vertex graph after the
// batch: the adds' largest endpoint + 1 when that exceeds numV. Growth is
// bounded by the batch's own size — k adds can name at most 2k new
// vertices, so an add endpoint at or beyond numV + 2k is an error. The
// bound is what keeps one hostile vertex id (4e9 in a one-edge batch)
// from sizing a multi-gigabyte offset array; ApplyBatch checks it before
// it allocates anything, and the engine checks a whole stream with it
// before the first boundary runs.
func (b EdgeBatch) GrowVertices(numV int) (int, error) {
	bound := int64(numV) + 2*int64(len(b.Adds))
	grown := numV
	for i, e := range b.Adds {
		hi := max(e.Src, e.Dst)
		if int64(hi) >= bound {
			return 0, fmt.Errorf("graph: batch add %d (%d->%d) beyond vertex growth bound %d (%d vertices + 2 per add)",
				i, e.Src, e.Dst, bound, numV)
		}
		grown = max(grown, int(hi)+1)
	}
	return grown, nil
}

// ApplyBatch produces a new graph version with the batch applied,
// leaving g untouched — existing versions stay immutable, so snapshots,
// partitionings and caches holding g remain valid. The new version is a
// plain *Graph: every consumer of CSR() works on it unchanged.
//
// The edge order of the new version is canonical and deterministic — the
// order a stable counting sort of "g's edges in source-major CSR order
// with the removed ones deleted, then the batch's adds in batch order"
// produces: a vertex's out-list is its surviving out-edges in g's order
// followed by its adds; its in-list is its surviving in-edges in g's
// *out*-order (sources ascending — not g's own in-list order, which
// follows whatever edge order g was ingested in) followed by its adds.
// Two replays of the same batch sequence therefore produce bit-identical
// versions — the property the incremental engine's differential
// conformance relies on.
//
// The merge goes straight from g's CSR to the new one: what it allocates
// is the new version's own arrays (24 B/edge, 16 B/vertex).
//
// Removes must name edges present in g (all parallel (src,dst) copies
// are removed together; a pair named twice in one batch is an error, as
// is a pair with no matching edge). Adds may grow the vertex range within
// the GrowVertices bound. Offset arrays are shared with g when the
// corresponding degree vector is unchanged; an empty batch returns g
// itself.
func (g *Graph) ApplyBatch(b EdgeBatch) (*Graph, error) {
	if b.Empty() {
		return g, nil
	}
	numV, err := b.GrowVertices(g.numV)
	if err != nil {
		return nil, err
	}
	rm := make(map[uint64]struct{}, len(b.Removes))
	rmSrc := make([]VertexID, len(b.Removes))
	for i, e := range b.Removes {
		if int(e.Src) >= g.numV || int(e.Dst) >= g.numV {
			return nil, fmt.Errorf("graph: batch remove %d (%d->%d) outside vertex range [0,%d)",
				i, e.Src, e.Dst, g.numV)
		}
		k := pairKey(e.Src, e.Dst)
		if _, dup := rm[k]; dup {
			return nil, fmt.Errorf("graph: batch removes edge %d->%d twice", e.Src, e.Dst)
		}
		rm[k] = struct{}{}
		rmSrc[i] = e.Src
	}

	// The new degree vectors are g's plus the batch's deltas, so the new
	// offsets — and whether they equal g's — are known before any edge
	// moves. A remove's delta is its number of parallel copies.
	outOff := make([]int64, numV+1)
	inOff := make([]int64, numV+1)
	for v := 0; v < g.numV; v++ {
		outOff[v+1] = g.outOff[v+1] - g.outOff[v]
		inOff[v+1] = g.inOff[v+1] - g.inOff[v]
	}
	for _, e := range b.Removes {
		var copies int64
		for _, d := range g.outDst[g.outOff[e.Src]:g.outOff[e.Src+1]] {
			if d == e.Dst {
				copies++
			}
		}
		if copies == 0 {
			return nil, fmt.Errorf("graph: batch removes absent edge %d->%d", e.Src, e.Dst)
		}
		outOff[e.Src+1] -= copies
		inOff[e.Dst+1] -= copies
	}
	for _, e := range b.Adds {
		outOff[e.Src+1]++
		inOff[e.Dst+1]++
	}
	for v := 0; v < numV; v++ {
		outOff[v+1] += outOff[v]
		inOff[v+1] += inOff[v]
	}
	numE := outOff[numV]
	ng := &Graph{
		numV:   numV,
		outOff: outOff, outDst: make([]VertexID, numE), outW: make([]float64, numE),
		inOff: inOff, inSrc: make([]VertexID, numE), inW: make([]float64, numE),
	}
	shareOut := slices.Equal(outOff, g.outOff)
	shareIn := slices.Equal(inOff, g.inOff)

	// One pass over g's out-CSR in source order. Both offset arrays double
	// as fill cursors (restored by shiftBack): inOff[d] is d's next in-slot
	// throughout, outOff[v] becomes the end of v's survivors, where v's
	// adds go. Only a source some remove names looks its edges up in rm;
	// every other out-range is copied whole.
	slices.Sort(rmSrc)
	rmSrc = slices.Compact(rmSrc)
	for v := 0; v < g.numV; v++ {
		lo, hi := g.outOff[v], g.outOff[v+1]
		start := outOff[v]
		end := start + (hi - lo)
		if len(rmSrc) > 0 && rmSrc[0] == VertexID(v) {
			rmSrc = rmSrc[1:]
			end = start
			for i := lo; i < hi; i++ {
				if _, gone := rm[pairKey(VertexID(v), g.outDst[i])]; !gone {
					ng.outDst[end], ng.outW[end] = g.outDst[i], g.outW[i]
					end++
				}
			}
		} else {
			copy(ng.outDst[start:end], g.outDst[lo:hi])
			copy(ng.outW[start:end], g.outW[lo:hi])
		}
		for i := start; i < end; i++ {
			d := ng.outDst[i]
			ng.inSrc[inOff[d]], ng.inW[inOff[d]] = VertexID(v), ng.outW[i]
			inOff[d]++
		}
		outOff[v] = end
	}
	for _, e := range b.Adds {
		ng.outDst[outOff[e.Src]], ng.outW[outOff[e.Src]] = e.Dst, e.Weight
		outOff[e.Src]++
		ng.inSrc[inOff[e.Dst]], ng.inW[inOff[e.Dst]] = e.Src, e.Weight
		inOff[e.Dst]++
	}
	shiftBack(outOff)
	shiftBack(inOff)
	if shareOut {
		ng.outOff = g.outOff
	}
	if shareIn {
		ng.inOff = g.inOff
	}
	return ng, nil
}

func pairKey(src, dst VertexID) uint64 { return uint64(src)<<32 | uint64(dst) }
