package algos

import (
	"math"

	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// CC is connected components by min-label propagation (the "CC" workload
// of Figure 1): every vertex starts with its own ID and repeatedly adopts
// the minimum label reaching it along edges. On a symmetric (undirected)
// graph this converges to the weakly connected components; on a directed
// graph labels flow along edge direction only.
type CC struct{}

// NewCC returns the connected-components algorithm.
func NewCC() *CC { return &CC{} }

// Name implements template.Algorithm.
func (c *CC) Name() string { return "CC" }

// AttrWidth implements template.Algorithm.
func (c *CC) AttrWidth() int { return 1 }

// MsgWidth implements template.Algorithm.
func (c *CC) MsgWidth() int { return 1 }

// Init implements template.Algorithm.
func (c *CC) Init(_ *template.Context, id graph.VertexID, attr []float64) {
	attr[0] = float64(id)
}

// MSGGen implements template.Algorithm.
func (c *CC) MSGGen(_ *template.Context, _, _ graph.VertexID, _ float64, srcAttr, msg []float64) bool {
	msg[0] = srcAttr[0]
	return true
}

// MergeIdentity implements template.Algorithm.
func (c *CC) MergeIdentity(msg []float64) { msg[0] = math.Inf(1) }

// MSGMerge implements template.Algorithm: min.
func (c *CC) MSGMerge(acc, msg []float64) {
	if msg[0] < acc[0] {
		acc[0] = msg[0]
	}
}

// MSGApply implements template.Algorithm.
func (c *CC) MSGApply(_ *template.Context, _ graph.VertexID, attr, msg []float64, received bool) bool {
	if !received || msg[0] >= attr[0] {
		return false
	}
	attr[0] = msg[0]
	return true
}

// Hints implements template.Algorithm.
func (c *CC) Hints() template.Hints {
	return template.Hints{OpsPerEdge: 40, OpsPerVertex: 20, Incremental: true, SourceOnly: true}
}

// RefCC runs the identical fixpoint sequentially.
func RefCC(g *graph.Graph) ([]float64, int) {
	n := g.NumVertices()
	label := make([]float64, n)
	for v := range label {
		label[v] = float64(v)
	}
	iters := 0
	for {
		changed := false
		next := make([]float64, n)
		copy(next, label)
		for v := 0; v < n; v++ {
			g.OutEdges(graph.VertexID(v), func(dst graph.VertexID, _ float64) {
				if label[v] < next[dst] {
					next[dst] = label[v]
					changed = true
				}
			})
		}
		label = next
		iters++
		if !changed {
			break
		}
	}
	return label, iters
}
