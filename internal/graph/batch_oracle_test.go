package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the ApplyBatch the direct CSR merge replaced —
// verbatim apart from its name and receiver: a full edge list of the
// surviving edges plus the adds, rebuilt through FromEdges — as the
// oracle TestApplyBatchMatchesOracle and FuzzApplyBatch hold the merge
// to, array for array and error text for error text. Nothing outside
// the tests runs it. It has no vertex-growth bound: callers keep add
// endpoints inside the bound ApplyBatch enforces.

func applyBatchOracle(g *Graph, b EdgeBatch) (*Graph, error) {
	if b.Empty() {
		return g, nil
	}
	rm := make(map[uint64]int64, len(b.Removes))
	for i, e := range b.Removes {
		if int(e.Src) >= g.numV || int(e.Dst) >= g.numV {
			return nil, fmt.Errorf("graph: batch remove %d (%d->%d) outside vertex range [0,%d)",
				i, e.Src, e.Dst, g.numV)
		}
		k := pairKey(e.Src, e.Dst)
		if _, dup := rm[k]; dup {
			return nil, fmt.Errorf("graph: batch removes edge %d->%d twice", e.Src, e.Dst)
		}
		rm[k] = 0
	}

	newNumV := g.numV
	for _, e := range b.Adds {
		if int(e.Src) >= newNumV {
			newNumV = int(e.Src) + 1
		}
		if int(e.Dst) >= newNumV {
			newNumV = int(e.Dst) + 1
		}
	}

	edges := make([]Edge, 0, len(g.outDst)-len(b.Removes)+len(b.Adds))
	for v := 0; v < g.numV; v++ {
		for i := g.outOff[v]; i < g.outOff[v+1]; i++ {
			k := pairKey(VertexID(v), g.outDst[i])
			if n, ok := rm[k]; ok {
				rm[k] = n + 1
				continue
			}
			edges = append(edges, Edge{Src: VertexID(v), Dst: g.outDst[i], Weight: g.outW[i]})
		}
	}
	for _, e := range b.Removes {
		if rm[pairKey(e.Src, e.Dst)] == 0 {
			return nil, fmt.Errorf("graph: batch removes absent edge %d->%d", e.Src, e.Dst)
		}
	}
	edges = append(edges, b.Adds...)

	ng, err := FromEdges(newNumV, edges)
	if err != nil {
		return nil, err
	}
	if newNumV == g.numV {
		if offsetsEqual(ng.outOff, g.outOff) {
			ng.outOff = g.outOff
		}
		if offsetsEqual(ng.inOff, g.inOff) {
			ng.inOff = g.inOff
		}
	}
	return ng, nil
}

func offsetsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sharesOffsets reports which of child's offset arrays are parent's own.
func sharesOffsets(child, parent *Graph) (out, in bool) {
	return &child.outOff[0] == &parent.outOff[0], &child.inOff[0] == &parent.inOff[0]
}

// checkAgainstOracle applies b to g both ways and fails unless the merge
// and the oracle agree: the same error text, or the same six arrays with
// the same offset arrays shared with g. It returns the merged version
// (g itself after an error).
func checkAgainstOracle(t *testing.T, g *Graph, b EdgeBatch) *Graph {
	t.Helper()
	got, err := g.ApplyBatch(b)
	if int64(len(b.Removes)) > g.NumEdges()+int64(len(b.Adds)) {
		// The oracle sizes its edge list before it validates the removes and
		// panics on the negative capacity. More removes than edges cannot all
		// be distinct present pairs, so an error is the only right answer.
		if err == nil {
			t.Fatalf("batch %+v removes more pairs than %v holds and was accepted", b, g.Edges())
		}
		return g
	}
	want, wantErr := applyBatchOracle(g, b)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("batch %+v: error %v, oracle %v", b, err, wantErr)
		}
		return g
	}
	if !csrArraysEqual(got, want) {
		t.Fatalf("batch %+v on %v:\n got %v\nwant %v", b, g.Edges(), got.Edges(), want.Edges())
	}
	if b.Empty() {
		if got != g {
			t.Fatal("empty batch returned a new version")
		}
		return g
	}
	gotOut, gotIn := sharesOffsets(got, g)
	wantOut, wantIn := sharesOffsets(want, g)
	if gotOut != wantOut || gotIn != wantIn {
		t.Fatalf("batch %+v: shares out/in offsets %v/%v, oracle %v/%v", b, gotOut, gotIn, wantOut, wantIn)
	}
	if _, err := FromCSR(got.numV, got.outOff, got.outDst, got.outW, got.inOff, got.inSrc, got.inW); err != nil {
		t.Fatalf("batch %+v: invalid CSR: %v", b, err)
	}
	return got
}

// TestApplyBatchMatchesOracle chains random batches over random
// multigraphs small enough that parallel edges, self-loops and repeated
// endpoints are the norm: removes of present pairs, adds inside and
// just past the current vertex range (never past the growth bound, which
// the oracle does not have), degree-preserving replacements that share
// offsets, and each of the three remove errors.
func TestApplyBatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	weights := []float64{1, 0.5, 2.5, 0, math.Copysign(0, -1), math.Inf(1)}
	for trial := 0; trial < 300; trial++ {
		numV := 1 + rng.Intn(12)
		edges := make([]Edge, rng.Intn(40))
		for i := range edges {
			edges[i] = Edge{VertexID(rng.Intn(numV)), VertexID(rng.Intn(numV)), weights[rng.Intn(len(weights))]}
		}
		g := MustFromEdges(numV, edges)
		for step := 0; step < 4; step++ {
			var b EdgeBatch
			// Removes: distinct present pairs.
			present := g.Edges()
			rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
			seen := map[uint64]bool{}
			for _, e := range present[:rng.Intn(min(len(present), 5)+1)] {
				if k := pairKey(e.Src, e.Dst); !seen[k] {
					seen[k] = true
					b.Removes = append(b.Removes, Edge{Src: e.Src, Dst: e.Dst})
				}
			}
			nAdds := rng.Intn(6)
			if rng.Intn(4) == 0 {
				// Put every removed copy back under a new weight: both degree
				// vectors, and so both offset arrays, stay the parent's.
				nAdds = 0
				for _, r := range b.Removes {
					g.OutEdges(r.Src, func(d VertexID, _ float64) {
						if d == r.Dst {
							b.Adds = append(b.Adds, Edge{r.Src, r.Dst, 7})
						}
					})
				}
			}
			for i := 0; i < nAdds; i++ {
				limit := g.numV
				if rng.Intn(3) == 0 {
					limit += 2 * nAdds // up to the growth bound, exclusive
				}
				b.Adds = append(b.Adds, Edge{VertexID(rng.Intn(limit)), VertexID(rng.Intn(limit)), weights[rng.Intn(len(weights))]})
			}
			switch rng.Intn(12) {
			case 0: // absent pair
				b.Removes = append(b.Removes, Edge{Src: VertexID(rng.Intn(g.numV)), Dst: VertexID(rng.Intn(g.numV))})
			case 1: // a pair named twice
				if len(b.Removes) > 0 {
					b.Removes = append(b.Removes, b.Removes[rng.Intn(len(b.Removes))])
				}
			case 2: // outside the vertex range
				b.Removes = append(b.Removes, Edge{Src: VertexID(g.numV + rng.Intn(3)), Dst: 0})
			}
			g = checkAgainstOracle(t, g, b)
		}
	}
}

// FuzzApplyBatch decodes a small multigraph and one batch from the input
// and holds ApplyBatch to the oracle. A batch past the growth bound — the
// one case the oracle would accept — must fail with GrowVertices' error.
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 1, 0, 2, 2, 1, 2, 1, 2, 0, 1, 0, 0, 1, 0, 1, 3, 4})
	f.Add([]byte("parallel-edges-and-self-loops"))
	f.Add([]byte{0, 0, 1, 200, 200, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		numV := 1 + next()%12
		edges := make([]Edge, next()%32)
		for i := range edges {
			edges[i] = Edge{VertexID(next() % numV), VertexID(next() % numV), float64(next()) / 4}
		}
		g := MustFromEdges(numV, edges)
		var b EdgeBatch
		for len(data) > 0 {
			// Ids range a little past the vertex count, so removes can be out
			// of range and adds on either side of the growth bound.
			op, src, dst := next(), VertexID(next()%(numV+6)), VertexID(next()%(numV+6))
			if op%2 == 0 {
				b.Adds = append(b.Adds, Edge{src, dst, float64(op)})
			} else {
				b.Removes = append(b.Removes, Edge{Src: src, Dst: dst})
			}
		}
		if _, growErr := b.GrowVertices(numV); growErr != nil {
			if _, err := g.ApplyBatch(b); err == nil || err.Error() != growErr.Error() {
				t.Fatalf("batch %+v: error %v, want %v", b, err, growErr)
			}
			return
		}
		checkAgainstOracle(t, g, b)
	})
}
