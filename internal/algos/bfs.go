package algos

import (
	"math"

	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// KHopBFS computes hop distances from a set of sources up to a bound K —
// the "kNN" neighbourhood workload of the paper's Figure 1 (k-hop
// nearest-neighbour expansion). The attribute row holds one hop count;
// messages carry candidate hop counts and merge by minimum. Vertices
// beyond K hops keep +Inf.
type KHopBFS struct {
	sources []graph.VertexID
	// K bounds the expansion; 0 means unbounded BFS.
	K int
}

// NewKHopBFS creates the algorithm.
func NewKHopBFS(sources []graph.VertexID, k int) *KHopBFS {
	if len(sources) == 0 {
		panic("algos: BFS with no sources")
	}
	if k < 0 {
		panic("algos: negative hop bound")
	}
	s := make([]graph.VertexID, len(sources))
	copy(s, sources)
	return &KHopBFS{sources: s, K: k}
}

// Sources implements template.Sourced.
func (b *KHopBFS) Sources() []graph.VertexID { return b.sources }

// Name implements template.Algorithm.
func (b *KHopBFS) Name() string { return "kNN-BFS" }

// AttrWidth implements template.Algorithm.
func (b *KHopBFS) AttrWidth() int { return 1 }

// MsgWidth implements template.Algorithm.
func (b *KHopBFS) MsgWidth() int { return 1 }

// Init implements template.Algorithm.
func (b *KHopBFS) Init(_ *template.Context, id graph.VertexID, attr []float64) {
	attr[0] = math.Inf(1)
	for _, s := range b.sources {
		if id == s {
			attr[0] = 0
		}
	}
}

// MSGGen implements template.Algorithm: advertise hop+1, respecting the
// bound.
func (b *KHopBFS) MSGGen(_ *template.Context, _, _ graph.VertexID, _ float64, srcAttr, msg []float64) bool {
	h := srcAttr[0]
	if math.IsInf(h, 1) {
		return false
	}
	if b.K > 0 && h >= float64(b.K) {
		return false
	}
	msg[0] = h + 1
	return true
}

// MergeIdentity implements template.Algorithm.
func (b *KHopBFS) MergeIdentity(msg []float64) { msg[0] = math.Inf(1) }

// MSGMerge implements template.Algorithm: min.
func (b *KHopBFS) MSGMerge(acc, msg []float64) {
	if msg[0] < acc[0] {
		acc[0] = msg[0]
	}
}

// MSGApply implements template.Algorithm.
func (b *KHopBFS) MSGApply(_ *template.Context, _ graph.VertexID, attr, msg []float64, received bool) bool {
	if !received || msg[0] >= attr[0] {
		return false
	}
	attr[0] = msg[0]
	return true
}

// Hints implements template.Algorithm.
func (b *KHopBFS) Hints() template.Hints {
	return template.Hints{OpsPerEdge: 20, OpsPerVertex: 10, SourceOnly: true}
}

// RefKHopBFS runs the identical bounded BFS sequentially.
func RefKHopBFS(g *graph.Graph, sources []graph.VertexID, k int) []float64 {
	n := g.NumVertices()
	hop := make([]float64, n)
	for v := range hop {
		hop[v] = math.Inf(1)
	}
	frontier := make([]graph.VertexID, 0, len(sources))
	for _, s := range sources {
		if hop[s] != 0 {
			hop[s] = 0
			frontier = append(frontier, s)
		}
	}
	depth := 0
	for len(frontier) > 0 {
		if k > 0 && depth >= k {
			break
		}
		var next []graph.VertexID
		for _, v := range frontier {
			g.OutEdges(v, func(dst graph.VertexID, _ float64) {
				if hop[v]+1 < hop[dst] {
					hop[dst] = hop[v] + 1
					next = append(next, dst)
				}
			})
		}
		frontier = next
		depth++
	}
	return hop
}
