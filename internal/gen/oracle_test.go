package gen

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"gxplug/internal/graph"
)

// This file keeps the generators as they were before they emitted one
// edge slab — R-MAT communities built as whole graphs and copied back
// out, a road grown by append — verbatim (identifiers prefixed;
// Graph.Edges, since deleted, is edgesInSourceOrder) as the oracles
// every generated graph is compared against, bit for bit. ER and the
// dataset sizing did not change, so oracleLoad calls ER itself.

// edgesInSourceOrder lists g's edges in source order, each source's in
// out-CSR order — what Graph.Edges returned.
func edgesInSourceOrder(g *graph.Graph) []graph.Edge {
	var out []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		g.OutEdges(graph.VertexID(v), func(d graph.VertexID, w float64) {
			out = append(out, graph.Edge{Src: graph.VertexID(v), Dst: d, Weight: w})
		})
	}
	return out
}

// oracleRMAT generates a power-law directed graph. Weights are uniform in
// [1, 10), suiting the SSSP workloads.
func oracleRMAT(c RMATConfig) (*graph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Communities > 1 {
		return oracleRMATCommunities(c)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	levels := 0
	for (1 << levels) < c.NumVertices {
		levels++
	}
	perm := identity(c.NumVertices)
	if !c.Community {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	edges := make([]graph.Edge, 0, c.NumEdges)
	for int64(len(edges)) < c.NumEdges {
		src, dst := 0, 0
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < c.A:
				// top-left: no bits set
			case r < c.A+c.B:
				dst |= 1 << l
			case r < c.A+c.B+c.C:
				src |= 1 << l
			default:
				src |= 1 << l
				dst |= 1 << l
			}
		}
		if src >= c.NumVertices || dst >= c.NumVertices {
			continue
		}
		edges = append(edges, graph.Edge{
			Src:    graph.VertexID(perm[src]),
			Dst:    graph.VertexID(perm[dst]),
			Weight: 1 + 9*rng.Float64(),
		})
	}
	return graph.FromEdges(c.NumVertices, edges)
}

// oracleRMATCommunities builds Communities independent R-MATs over contiguous
// vertex ranges plus CrossFraction uniform edges between adjacent
// communities.
func oracleRMATCommunities(c RMATConfig) (*graph.Graph, error) {
	nc := c.Communities
	if c.CrossFraction < 0 || c.CrossFraction >= 1 {
		return nil, fmt.Errorf("gen: cross fraction %v", c.CrossFraction)
	}
	perV := c.NumVertices / nc
	if perV < 2 {
		return nil, fmt.Errorf("gen: %d vertices cannot host %d communities", c.NumVertices, nc)
	}
	crossE := int64(c.CrossFraction * float64(c.NumEdges))
	perE := (c.NumEdges - crossE) / int64(nc)
	if perE < 1 {
		return nil, fmt.Errorf("gen: too few edges (%d) for %d communities", c.NumEdges, nc)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	var edges []graph.Edge
	for ci := 0; ci < nc; ci++ {
		base := graph.VertexID(ci * perV)
		size := perV
		if ci == nc-1 {
			size = c.NumVertices - ci*perV
		}
		sub, err := oracleRMAT(RMATConfig{
			NumVertices: size, NumEdges: perE,
			A: c.A, B: c.B, C: c.C,
			Community: c.Community, Seed: c.Seed + int64(ci) + 1,
		})
		if err != nil {
			return nil, err
		}
		for _, e := range edgesInSourceOrder(sub) {
			edges = append(edges, graph.Edge{Src: base + e.Src, Dst: base + e.Dst, Weight: e.Weight})
		}
	}
	for i := int64(0); i < crossE; i++ {
		ci := rng.Intn(nc - 1)
		src := graph.VertexID(ci*perV + rng.Intn(perV))
		dst := graph.VertexID((ci+1)*perV + rng.Intn(perV))
		if rng.Intn(2) == 0 {
			src, dst = dst, src
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: 1 + 9*rng.Float64()})
	}
	return graph.FromEdges(c.NumVertices, edges)
}

// oracleRoad generates a road-network-like graph: bidirectional lattice edges
// with travel-time weights, average degree ≈ 2-4, huge diameter.
func oracleRoad(c RoadConfig) (*graph.Graph, error) {
	if c.Rows < 2 || c.Cols < 2 {
		return nil, fmt.Errorf("gen: road grid %dx%d", c.Rows, c.Cols)
	}
	if c.DiagonalFraction < 0 || c.DiagonalFraction > 1 {
		return nil, fmt.Errorf("gen: diagonal fraction %v", c.DiagonalFraction)
	}
	clusters := c.Clusters
	if clusters < 1 {
		clusters = 1
	}
	rng := rand.New(rand.NewSource(c.Seed))
	perCluster := c.Rows * c.Cols
	n := perCluster * clusters
	var edges []graph.Edge
	add := func(a, b graph.VertexID) {
		w := 1 + 4*rng.Float64()
		edges = append(edges, graph.Edge{Src: a, Dst: b, Weight: w},
			graph.Edge{Src: b, Dst: a, Weight: w})
	}
	for k := 0; k < clusters; k++ {
		base := k * perCluster
		id := func(r, col int) graph.VertexID { return graph.VertexID(base + r*c.Cols + col) }
		for r := 0; r < c.Rows; r++ {
			for col := 0; col < c.Cols; col++ {
				if col+1 < c.Cols {
					add(id(r, col), id(r, col+1))
				}
				if r+1 < c.Rows {
					add(id(r, col), id(r+1, col))
				}
				if r+1 < c.Rows && col+1 < c.Cols && rng.Float64() < c.DiagonalFraction {
					add(id(r, col), id(r+1, col+1))
				}
			}
		}
		if k+1 < clusters {
			// One highway from this cluster's south-east corner to the
			// next cluster's north-west corner.
			add(graph.VertexID(base+perCluster-1), graph.VertexID(base+perCluster))
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// oracleLoad generates the stand-in for a dataset at 1/scale of its Table I
// size (scale 1000 is the default used across the harness; benches use it
// so that a full figure regenerates in seconds). Vertex degree — the
// paper's proxy for per-unit workload (footnote 5) — is preserved because
// both V and E shrink by the same factor.
func oracleLoad(d Dataset, scale int64, seed int64) (*graph.Graph, error) {
	if scale < 1 {
		return nil, fmt.Errorf("gen: scale %d", scale)
	}
	info, err := Catalog(d)
	if err != nil {
		return nil, err
	}
	v := max64(info.PaperVertices/scale, 64)
	e := max64(info.PaperEdges/scale, 256)
	switch d {
	case WRN:
		// Urban clusters chained by highways.
		clusters := 16
		perCluster := v / int64(clusters)
		for clusters > 1 && perCluster < 16 {
			clusters /= 2
			perCluster = v / int64(clusters)
		}
		rows := isqrt(perCluster)
		if rows < 2 {
			rows = 2
		}
		cols := perCluster / rows
		if cols < 2 {
			cols = 2
		}
		return oracleRoad(RoadConfig{
			Rows: int(rows), Cols: int(cols),
			DiagonalFraction: 0.05, Clusters: clusters, Seed: seed,
		})
	case Syn4m:
		return ER(ERConfig{NumVertices: int(v), NumEdges: e, Seed: seed})
	default:
		// Social/web graphs: skewed R-MAT with community structure —
		// dense power-law clusters joined by sparse cross edges, the
		// shape of real crawls.
		communities := 32
		for communities > 1 && int(v)/communities < 8 {
			communities /= 2
		}
		return oracleRMAT(RMATConfig{
			NumVertices: int(v), NumEdges: e,
			A: 0.57, B: 0.19, C: 0.19,
			Community: true, Communities: communities, CrossFraction: 0.02,
			Seed: seed,
		})
	}
}

// sameCSR reports whether two graphs have bit-identical CSR arrays, both
// orientations, weights compared by bits.
func sameCSR(a, b *graph.Graph) bool {
	ao, ad, aw, ai, as, aiw := a.CSR()
	bo, bd, bw, bi, bs, biw := b.CSR()
	return a.NumVertices() == b.NumVertices() &&
		slices.Equal(ao, bo) && slices.Equal(ad, bd) && slices.Equal(ai, bi) && slices.Equal(as, bs) &&
		slices.Equal(bits(aw), bits(bw)) && slices.Equal(bits(aiw), bits(biw))
}

func bits(f []float64) []uint64 {
	out := make([]uint64, len(f))
	for i, x := range f {
		out[i] = math.Float64bits(x)
	}
	return out
}

// maxOracleEdges leaves out the cells whose oracle run would hold
// several copies of a multi-million-edge graph at once (twitter and
// uk-2007-02 at scale 500): every generator path they take is covered
// by the smaller cells, which differ only in sizes.
const maxOracleEdges = 2_000_000

// Every dataset at scales 500, 2000 and 16000 and three seeds (one
// under -short) generates the graph the parent generators did, bit for
// bit: same vertex count, same out- and in-CSR, same tie order.
func TestLoadMatchesOracle(t *testing.T) {
	seeds := []int64{1, 42, 43}
	if testing.Short() {
		seeds = seeds[1:2]
	}
	for _, d := range Datasets() {
		info, err := Catalog(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int64{500, 2000, 16000} {
			if info.PaperEdges/scale > maxOracleEdges {
				continue
			}
			for _, seed := range seeds {
				got, err := Load(d, scale, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleLoad(d, scale, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !sameCSR(got, want) {
					t.Fatalf("%s scale %d seed %d: graph differs from the oracle's", d, scale, seed)
				}
			}
		}
	}
	// The shapes no dataset uses: shuffled R-MAT ids, flat and in
	// communities, and a single dense-diagonal road grid.
	for _, c := range []RMATConfig{
		{NumVertices: 1000, NumEdges: 9000, A: 0.57, B: 0.19, C: 0.19, Seed: 5},
		{NumVertices: 1000, NumEdges: 9000, A: 0.45, B: 0.25, C: 0.15, Communities: 7, CrossFraction: 0.1, Seed: 6},
	} {
		got, err := RMAT(c)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := oracleRMAT(c); !sameCSR(got, want) {
			t.Fatalf("%+v: graph differs from the oracle's", c)
		}
	}
	c := RoadConfig{Rows: 13, Cols: 7, DiagonalFraction: 0.5, Seed: 3}
	got, err := Road(c)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := oracleRoad(c); !sameCSR(got, want) {
		t.Fatalf("%+v: graph differs from the oracle's", c)
	}
}

// totalAlloc returns the bytes fn allocates on the heap.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// csrBytes is the size of g's six CSR arrays.
func csrBytes(g *graph.Graph) uint64 {
	return uint64(16*(g.NumVertices()+1)) + uint64(24*g.NumEdges())
}

// A generated graph costs at most twice its own CSR: the one edge slab
// (16 B/edge against the CSR's 24) and the generator's scratch, not a
// graph per community plus a slice grown by append.
func TestLoadAllocatesTwiceTheGraph(t *testing.T) {
	for _, d := range []Dataset{Orkut, LiveJournal, WRN} {
		var g *graph.Graph
		var err error
		n := totalAlloc(func() { g, err = Load(d, 500, 42) })
		if err != nil {
			t.Fatal(err)
		}
		if limit := 2 * csrBytes(g); n > limit {
			t.Errorf("%s at scale 500: Load allocated %d bytes, want ≤ %d (2× its %d-byte CSR)", d, n, limit, csrBytes(g))
		}
		t.Logf("%s at scale 500: %.1f MB for a %.1f MB CSR", d, float64(n)/1e6, float64(csrBytes(g))/1e6)
	}
}
