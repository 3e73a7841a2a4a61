package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// randomGraph builds a reproducible random graph for partitioner tests.
func randomGraph(seed int64, numV, numE int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, numE)
	for i := range edges {
		edges[i] = Edge{
			Src:    VertexID(rng.Intn(numV)),
			Dst:    VertexID(rng.Intn(numV)),
			Weight: 1,
		}
	}
	return MustFromEdges(numV, edges)
}

func TestEdgeCutByHashValid(t *testing.T) {
	g := randomGraph(1, 200, 1500)
	for _, m := range []int{1, 2, 3, 8} {
		p := EdgeCutByHash(g, m)
		if err := p.Validate(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if p.ReplicationFactor() != 1.0 {
			t.Fatalf("m=%d: edge-cut replication = %v, want 1", m, p.ReplicationFactor())
		}
	}
}

func TestEdgeCutByRangeValid(t *testing.T) {
	g := randomGraph(2, 300, 2000)
	for _, m := range []int{1, 2, 5} {
		p := EdgeCutByRange(g, m)
		if err := p.Validate(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		// Ranges must be contiguous: owners non-decreasing.
		prev := int32(0)
		for v := 0; v < g.NumVertices(); v++ {
			if p.Owner[v] < prev {
				t.Fatalf("m=%d: owners not contiguous at vertex %d", m, v)
			}
			prev = p.Owner[v]
		}
	}
}

func TestEdgeCutByRangeBalancesEdges(t *testing.T) {
	g := randomGraph(3, 500, 5000)
	p := EdgeCutByRange(g, 4)
	for _, part := range p.Parts {
		frac := float64(len(part.Edges)) / float64(g.NumEdges())
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("node %d holds %.0f%% of edges, want near 25%%", part.Node, frac*100)
		}
	}
}

func TestGreedyVertexCutValidAndReplicated(t *testing.T) {
	g := randomGraph(4, 150, 2000)
	p := GreedyVertexCut(g, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rf := p.ReplicationFactor()
	if rf < 1.0 {
		t.Fatalf("replication factor %v < 1", rf)
	}
	if rf > 4.0 {
		t.Fatalf("replication factor %v > node count", rf)
	}
	// A random hash edge-cut of the same graph should replicate less than
	// the vertex-cut (which intentionally replicates high-degree vertices).
	var total int64
	for _, part := range p.Parts {
		total += int64(len(part.Edges))
	}
	if total != g.NumEdges() {
		t.Fatalf("vertex-cut lost edges: %d != %d", total, g.NumEdges())
	}
}

func TestGreedyVertexCutBalance(t *testing.T) {
	g := randomGraph(5, 200, 4000)
	p := GreedyVertexCut(g, 4)
	min, max := int64(1<<62), int64(0)
	for _, part := range p.Parts {
		n := int64(len(part.Edges))
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max > 3*min+10 {
		t.Fatalf("greedy vertex cut badly imbalanced: min=%d max=%d", min, max)
	}
}

func TestPartitionBySizes(t *testing.T) {
	g := randomGraph(6, 400, 6000)
	p := PartitionBySizes(g, []float64{1, 3}) // node 1 gets ~3x the edges
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	e0 := float64(len(p.Parts[0].Edges))
	e1 := float64(len(p.Parts[1].Edges))
	ratio := e1 / e0
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("size ratio %.2f, want near 3", ratio)
	}
}

func TestPartitionBySizesPanics(t *testing.T) {
	g := randomGraph(7, 10, 20)
	nan := math.NaN()
	for _, bad := range [][]float64{
		{}, {0, 0}, {-1, 2},
		// Non-finite fractions used to slip past the `f < 0` guard, poison
		// the running sum, and emit int64(NaN) garbage thresholds.
		{nan, 1}, {1, nan}, {nan, nan}, {math.Inf(1), 1}, {1, math.Inf(-1)},
	} {
		func() {
			defer func() { recover() }()
			PartitionBySizes(g, bad)
			t.Errorf("fractions %v accepted", bad)
		}()
	}
}

// Range partitioning of a locality-friendly graph (a path) must mark most
// vertices internal; hash partitioning must not. This is the structural
// fact behind the Fig 11b skipping results.
func TestInternalFlagsLocalityVsHash(t *testing.T) {
	const n = 1000
	edges := make([]Edge, 0, n-1)
	for v := 0; v < n-1; v++ {
		edges = append(edges, Edge{VertexID(v), VertexID(v + 1), 1})
	}
	g := MustFromEdges(n, edges)

	countInternal := func(p *Partitioning) int {
		c := 0
		for _, part := range p.Parts {
			for _, in := range part.Internal {
				if in {
					c++
				}
			}
		}
		return c
	}
	rangeInternal := countInternal(EdgeCutByRange(g, 4))
	hashInternal := countInternal(EdgeCutByHash(g, 4))
	if rangeInternal < n*9/10 {
		t.Fatalf("range partition internal = %d/%d, want >90%%", rangeInternal, n)
	}
	if hashInternal > n/2 {
		t.Fatalf("hash partition internal = %d/%d, want <50%%", hashInternal, n)
	}
}

func TestPartitionTables(t *testing.T) {
	g := randomGraph(8, 100, 800)
	p := EdgeCutByHash(g, 3)
	for _, part := range p.Parts {
		vt, et, mt := part.Tables(2)
		if et.Len() != len(part.Edges) {
			t.Fatalf("node %d: edge table %d != partition %d", part.Node, et.Len(), len(part.Edges))
		}
		// Every master must be a row; mapping ranges must tile the table.
		for _, v := range part.Masters {
			if _, ok := vt.Lookup(v); !ok {
				t.Fatalf("node %d: master %d missing from vertex table", part.Node, v)
			}
		}
		total := 0
		for r := 0; r < vt.Len(); r++ {
			s, e := mt.EdgeRange(r)
			total += e - s
			for i := s; i < e; i++ {
				if row, _ := vt.Lookup(et.At(i).Src); row != r {
					t.Fatalf("node %d: edge %d grouped under wrong row", part.Node, i)
				}
			}
		}
		if total != et.Len() {
			t.Fatalf("node %d: mapping covers %d edges, want %d", part.Node, total, et.Len())
		}
	}
}

// Property: all three partitioners produce valid partitionings on random
// graphs and node counts.
func TestPartitionersValidQuick(t *testing.T) {
	f := func(seed int64, rawM uint8) bool {
		m := int(rawM)%6 + 1
		g := randomGraph(seed, 30+int(seed%17+17)%50, 200)
		for _, p := range []*Partitioning{
			EdgeCutByHash(g, m), EdgeCutByRange(g, m), GreedyVertexCut(g, m),
		} {
			if err := p.Validate(); err != nil {
				t.Logf("seed=%d m=%d: %v", seed, m, err)
				return false
			}
		}
		return true
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
