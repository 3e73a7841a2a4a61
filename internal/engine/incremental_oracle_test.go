package engine

import (
	"math"
	"slices"

	"gxplug/internal/graph"
)

// This file keeps the DirtySeed the streamed comparison replaced — both
// partitionings' merge signatures materialized by a counting sort each
// and compared range by range with slices.Equal — as the oracle
// TestDirtySeedMatchesOracle holds the seeder to. Like the seeder, it
// compares degrees and fold order, not in-CSR order, which no run reads.
// Nothing outside the tests runs it.

func dirtySeedOracle(oldG, newG *graph.Graph, oldPart, newPart *graph.Partitioning) []bool {
	n := newG.NumVertices()
	dirty := make([]bool, n)
	if oldG == nil || oldPart == nil ||
		oldG.NumVertices() != n || oldPart.NumNodes() != newPart.NumNodes() {
		for i := range dirty {
			dirty[i] = true
		}
		return dirty
	}

	oOutOff, _, _, oInOff, _, _ := oldG.CSR()
	nOutOff, nOutDst, _, nInOff, _, _ := newG.CSR()
	for v := 0; v < n; v++ {
		outChanged := oOutOff[v+1]-oOutOff[v] != nOutOff[v+1]-nOutOff[v]
		inChanged := oInOff[v+1]-oInOff[v] != nInOff[v+1]-nInOff[v]
		if outChanged || inChanged {
			// The vertex itself may read its degrees in Init/MSGApply;
			// its out-neighbours receive messages that may read the
			// source's degrees in MSGGen.
			dirty[v] = true
			for k := nOutOff[v]; k < nOutOff[v+1]; k++ {
				dirty[nOutDst[k]] = true
			}
		}
	}

	oldSig, newSig := mergeSignatureOracle(oldPart), mergeSignatureOracle(newPart)
	for v := 0; v < n; v++ {
		if !dirty[v] && (oldPart.Owner[v] != newPart.Owner[v] ||
			!slices.Equal(oldSig[oInOff[v]:oInOff[v+1]], newSig[nInOff[v]:nInOff[v+1]])) {
			dirty[v] = true
		}
	}
	return dirty
}

// sigEntry is one in-edge's position in a vertex's merge fold: which
// node generates the message, from which source, with which weight bits.
type sigEntry struct {
	node int32
	src  graph.VertexID
	w    uint64
}

func mergeSignatureOracle(part *graph.Partitioning) []sigEntry {
	_, _, _, inOff, _, _ := part.Graph.CSR()
	next := slices.Clone(inOff[:len(inOff)-1])
	sig := make([]sigEntry, part.Graph.NumEdges())
	for j, p := range part.Parts {
		for _, e := range p.Edges {
			sig[next[e.Dst]] = sigEntry{node: int32(j), src: e.Src, w: math.Float64bits(e.Weight)}
			next[e.Dst]++
		}
	}
	return sig
}
