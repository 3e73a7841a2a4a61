package algos

import (
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// KCore computes k-core membership (the "K-Core" workload of Figure 1) by
// iterative peeling: vertices whose degree falls below K are removed, and
// their removal decrements the degrees of their neighbours, until a
// fixpoint. Degrees count in-edges; on a symmetric graph that is the
// undirected degree, matching the classic definition.
//
// Attribute layout: attr[0] = 1 while the vertex is alive, 0 once peeled;
// attr[1] = current residual degree.
type KCore struct {
	K int
}

// NewKCore returns the k-core algorithm for the given k.
func NewKCore(k int) *KCore {
	if k < 1 {
		panic("algos: k-core with k < 1")
	}
	return &KCore{K: k}
}

// Name implements template.Algorithm.
func (kc *KCore) Name() string { return "K-Core" }

// AttrWidth implements template.Algorithm.
func (kc *KCore) AttrWidth() int { return 2 }

// MsgWidth implements template.Algorithm: count of removed in-neighbours.
func (kc *KCore) MsgWidth() int { return 1 }

// Init implements template.Algorithm.
func (kc *KCore) Init(ctx *template.Context, id graph.VertexID, attr []float64) {
	attr[0] = 1
	attr[1] = float64(ctx.InDeg(id))
}

// MSGGen implements template.Algorithm: a vertex that was just peeled
// (active and dead) notifies each out-neighbour of one lost edge.
func (kc *KCore) MSGGen(_ *template.Context, _, _ graph.VertexID, _ float64, srcAttr, msg []float64) bool {
	if srcAttr[0] != 0 {
		return false
	}
	msg[0] = 1
	return true
}

// MergeIdentity implements template.Algorithm.
func (kc *KCore) MergeIdentity(msg []float64) { msg[0] = 0 }

// MSGMerge implements template.Algorithm: removals sum.
func (kc *KCore) MSGMerge(acc, msg []float64) { acc[0] += msg[0] }

// MSGApply implements template.Algorithm: drop degree; peel when it falls
// below K. A vertex becomes active exactly once — the iteration it dies —
// which is when MSGGen broadcasts its removal.
func (kc *KCore) MSGApply(_ *template.Context, _ graph.VertexID, attr, msg []float64, received bool) bool {
	if attr[0] == 0 {
		return false // already peeled; never reactivates
	}
	if received {
		attr[1] -= msg[0]
	}
	if attr[1] < float64(kc.K) {
		attr[0] = 0
		return true
	}
	return false
}

// Hints implements template.Algorithm. ApplyAll is required: the initial
// peel (degree < K before any messages) must run on every vertex.
func (kc *KCore) Hints() template.Hints {
	return template.Hints{
		ApplyAll:     true,
		OpsPerEdge:   50,
		OpsPerVertex: 30,
		SourceOnly:   true,
	}
}

// RefKCore peels sequentially and returns alive flags (1/0 per vertex)
// and the number of peeling rounds.
func RefKCore(g *graph.Graph, k int) ([]float64, int) {
	n := g.NumVertices()
	alive := make([]float64, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = 1
		deg[v] = g.InDegree(graph.VertexID(v))
	}
	rounds := 0
	for {
		var peeled []graph.VertexID
		for v := 0; v < n; v++ {
			if alive[v] == 1 && deg[v] < k {
				alive[v] = 0
				peeled = append(peeled, graph.VertexID(v))
			}
		}
		rounds++
		if len(peeled) == 0 {
			break
		}
		for _, v := range peeled {
			g.OutEdges(v, func(dst graph.VertexID, _ float64) {
				deg[dst]--
			})
		}
	}
	return alive, rounds
}
