// Package gen generates the synthetic stand-ins for the paper's datasets
// (Table I). The real datasets (Orkut, Wiki-topcats, LiveJournal, the
// Western-USA road network, Twitter-2010, UK-2007-02) are not
// redistributable inside an offline reproduction, so each is replaced by
// a generator that matches the structural property the experiments
// exploit:
//
//   - social/web graphs  -> R-MAT with power-law degrees and, optionally,
//     community-ordered vertex IDs (locality, so range partitioning yields
//     the clustered partitions that trigger synchronization skipping);
//   - road networks      -> a 2D lattice with perturbed diagonals: degree
//     ~2.4, enormous diameter, near-perfect partition locality;
//   - uniform synthetic  -> Erdős–Rényi ("Syn4m" in Fig 11), which defeats
//     synchronization skipping because updates scatter uniformly.
//
// All generators are deterministic in their seed.
package gen

import (
	"fmt"
	"math/rand"

	"gxplug/internal/graph"
)

// RMATConfig parameterizes the recursive-matrix generator of Chakrabarti
// et al., the standard model for power-law web/social graphs.
type RMATConfig struct {
	// NumVertices is rounded up to a power of two internally for the
	// recursion, then IDs are mapped back below NumVertices.
	NumVertices int
	NumEdges    int64
	// A, B, C are the quadrant probabilities (D = 1-A-B-C). The classic
	// skewed setting is A=0.57, B=0.19, C=0.19.
	A, B, C float64
	// Community, if true, keeps the recursive structure aligned with
	// vertex-ID order (no shuffle), so nearby IDs are densely connected —
	// modelling the clustered layouts of real crawls. If false, IDs are
	// randomly permuted, destroying locality.
	Community bool
	// Communities > 1 generates that many independent R-MAT communities
	// over contiguous vertex ranges, joined by a CrossFraction share of
	// uniform edges between adjacent communities. Real social and web
	// crawls have exactly this shape — dense clusters with sparse
	// interconnects — and it is the property synchronization skipping
	// exploits (§V-B3). Zero or one means a single flat R-MAT.
	Communities int
	// CrossFraction is the share of edges crossing between adjacent
	// communities when Communities > 1 (e.g. 0.03).
	CrossFraction float64
	Seed          int64
}

// Validate checks generator parameters.
func (c RMATConfig) Validate() error {
	switch {
	case c.NumVertices < 2:
		return fmt.Errorf("gen: rmat vertices %d", c.NumVertices)
	case c.NumEdges < 1:
		return fmt.Errorf("gen: rmat edges %d", c.NumEdges)
	case c.A <= 0 || c.B < 0 || c.C < 0 || c.A+c.B+c.C >= 1:
		return fmt.Errorf("gen: rmat quadrants %v/%v/%v", c.A, c.B, c.C)
	}
	return nil
}

// RMAT generates a power-law directed graph. Weights are uniform in
// [1, 10), suiting the SSSP workloads.
func RMAT(c RMATConfig) (*graph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Communities > 1 {
		return rmatCommunities(c)
	}
	return graph.FromEdges(c.NumVertices, rmatEdges(make([]graph.Edge, 0, c.NumEdges), c))
}

// rmatEdges appends the c.NumEdges edges of one flat R-MAT to out, in
// generation order.
func rmatEdges(out []graph.Edge, c RMATConfig) []graph.Edge {
	rng := rand.New(rand.NewSource(c.Seed))
	levels := 0
	for (1 << levels) < c.NumVertices {
		levels++
	}
	perm := identity(c.NumVertices)
	if !c.Community {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	for want := len(out) + int(c.NumEdges); len(out) < want; {
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
		out = append(out, graph.Edge{
			Src:    graph.VertexID(perm[src]),
			Dst:    graph.VertexID(perm[dst]),
			Weight: 1 + 9*rng.Float64(),
		})
	}
	return out
}

// rmatCommunities builds Communities independent R-MATs over contiguous
// vertex ranges plus CrossFraction uniform edges between adjacent
// communities, into one exact edge slab: each community in source order
// (the order its own graph would list it), then the cross edges.
func rmatCommunities(c RMATConfig) (*graph.Graph, error) {
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
	edges := make([]graph.Edge, int64(nc)*perE, int64(nc)*perE+crossE)
	scratch := make([]graph.Edge, 0, perE)
	off := make([]int64, c.NumVertices-(nc-1)*perV+1)
	for ci := 0; ci < nc; ci++ {
		base := graph.VertexID(ci * perV)
		size := perV
		if ci == nc-1 {
			size = c.NumVertices - ci*perV
		}
		scratch = rmatEdges(scratch[:0], RMATConfig{
			NumVertices: size, NumEdges: perE,
			A: c.A, B: c.B, C: c.C,
			Community: c.Community, Seed: c.Seed + int64(ci) + 1,
		})
		clear(off)
		for _, e := range scratch {
			off[e.Src+1]++
		}
		for v := 1; v <= size; v++ {
			off[v] += off[v-1]
		}
		for _, e := range scratch { // a stable counting sort by source
			edges[int64(ci)*perE+off[e.Src]] = graph.Edge{Src: base + e.Src, Dst: base + e.Dst, Weight: e.Weight}
			off[e.Src]++
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

// ERConfig parameterizes the uniform Erdős–Rényi generator.
type ERConfig struct {
	NumVertices int
	NumEdges    int64
	Seed        int64
}

// ER generates a uniform random directed graph — the "synthetic" dataset
// family of Fig 11, on which synchronization skipping is expected to be
// ineffective ("the data are more uniform, due to the random generation of
// nodes and edges").
func ER(c ERConfig) (*graph.Graph, error) {
	if c.NumVertices < 2 || c.NumEdges < 1 {
		return nil, fmt.Errorf("gen: er config %+v", c)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	edges := make([]graph.Edge, c.NumEdges)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(rng.Intn(c.NumVertices)),
			Dst:    graph.VertexID(rng.Intn(c.NumVertices)),
			Weight: 1 + 9*rng.Float64(),
		}
	}
	return graph.FromEdges(c.NumVertices, edges)
}

// RoadConfig parameterizes the road-network generator.
type RoadConfig struct {
	// Rows*Cols intersections arranged in a grid, numbered row-major (so
	// vertex order is spatial order: range partitions are rectangles).
	// With Clusters > 1, each cluster is one such grid.
	Rows, Cols int
	// DiagonalFraction adds this fraction of extra diagonal shortcuts,
	// mimicking secondary roads.
	DiagonalFraction float64
	// Clusters > 1 generates that many grid "cities" chained by single
	// highway edges — the urban-cluster structure of real road networks
	// (and the reason WRN-USA skips 60-90% of synchronizations in Fig
	// 11b: SSSP waves stay inside one city for long stretches).
	Clusters int
	Seed     int64
}

// Road generates a road-network-like graph: bidirectional lattice edges
// with travel-time weights, average degree ≈ 2-4, huge diameter.
func Road(c RoadConfig) (*graph.Graph, error) {
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
	// Room for every lattice link and diagonal both ways plus the
	// highways, so the slice never grows.
	links := c.Rows*(c.Cols-1) + (c.Rows-1)*c.Cols + (c.Rows-1)*(c.Cols-1)
	edges := make([]graph.Edge, 0, 2*(clusters*links+clusters-1))
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

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Dataset names a Table I stand-in.
type Dataset string

// The six datasets of Table I plus the synthetic graph of Fig 11.
const (
	Orkut       Dataset = "orkut"
	WikiTopcats Dataset = "wiki-topcats"
	LiveJournal Dataset = "livejournal"
	WRN         Dataset = "wrn"
	Twitter     Dataset = "twitter"
	UK2007      Dataset = "uk-2007-02"
	Syn4m       Dataset = "syn4m"
)

// AllDatasets lists the Table I rows in paper order.
func AllDatasets() []Dataset {
	return []Dataset{Orkut, WikiTopcats, LiveJournal, WRN, Twitter, UK2007}
}

// Datasets lists every loadable dataset: the Table I rows plus the
// synthetic graph of Fig 11. Everything here is accepted by Load.
func Datasets() []Dataset {
	return append(AllDatasets(), Syn4m)
}

// Info describes a catalog entry.
type Info struct {
	Name Dataset
	Type string
	// PaperVertices/PaperEdges are the real dataset sizes from Table I.
	PaperVertices, PaperEdges int64
}

// Catalog returns the Table I metadata for a dataset.
func Catalog(d Dataset) (Info, error) {
	switch d {
	case Orkut:
		return Info{d, "Social", 3_070_000, 117_180_000}, nil
	case WikiTopcats:
		return Info{d, "Network", 1_790_000, 28_510_000}, nil
	case LiveJournal:
		return Info{d, "Social", 4_840_000, 68_990_000}, nil
	case WRN:
		return Info{d, "Road", 23_900_000, 28_900_000}, nil
	case Twitter:
		return Info{d, "Social", 41_650_000, 1_468_000_000}, nil
	case UK2007:
		return Info{d, "Social", 110_100_000, 3_945_000_000}, nil
	case Syn4m:
		return Info{d, "Synthetic", 1_000_000, 4_000_000}, nil
	default:
		return Info{}, fmt.Errorf("gen: unknown dataset %q", d)
	}
}

// Load generates the stand-in for a dataset at 1/scale of its Table I
// size (scale 1000 is the default used across the harness; benches use it
// so that a full figure regenerates in seconds). Vertex degree — the
// paper's proxy for per-unit workload (footnote 5) — is preserved because
// both V and E shrink by the same factor.
func Load(d Dataset, scale int64, seed int64) (*graph.Graph, error) {
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
		return Road(RoadConfig{
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
		return RMAT(RMATConfig{
			NumVertices: int(v), NumEdges: e,
			A: 0.57, B: 0.19, C: 0.19,
			Community: true, Communities: communities, CrossFraction: 0.02,
			Seed: seed,
		})
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func isqrt(n int64) int64 {
	if n < 0 {
		return 0
	}
	x := int64(1)
	for x*x <= n {
		x++
	}
	return x - 1
}
