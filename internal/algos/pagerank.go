// Package algos implements the paper's evaluation algorithms — PageRank,
// multi-source Bellman-Ford SSSP, Label Propagation, plus the Connected
// Components and K-Core workloads of Figure 1 — each as an instance of
// the GX-Plug algorithm template, together with sequential reference
// implementations that the test suite checks every engine and middleware
// path against.
package algos

import (
	"math"

	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// PageRank is the damped PageRank of the evaluation ("PR"). One attribute
// slot holds the rank; messages carry rank/out-degree contributions.
type PageRank struct {
	Damping float64
	// Tol is the per-vertex convergence threshold on |Δrank|.
	Tol float64
}

// NewPageRank returns PageRank with the conventional damping 0.85 and a
// tolerance suitable for float64 iteration.
func NewPageRank() *PageRank { return &PageRank{Damping: 0.85, Tol: 1e-9} }

// Name implements template.Algorithm.
func (p *PageRank) Name() string { return "PageRank" }

// AttrWidth implements template.Algorithm.
func (p *PageRank) AttrWidth() int { return 1 }

// MsgWidth implements template.Algorithm.
func (p *PageRank) MsgWidth() int { return 1 }

// Init implements template.Algorithm: uniform initial mass.
func (p *PageRank) Init(ctx *template.Context, _ graph.VertexID, attr []float64) {
	attr[0] = 1.0 / float64(ctx.NumVertices)
}

// MSGGen implements template.Algorithm: one rank contribution per edge.
func (p *PageRank) MSGGen(ctx *template.Context, src, _ graph.VertexID, _ float64, srcAttr, msg []float64) bool {
	deg := ctx.OutDeg(src)
	if deg == 0 {
		return false
	}
	msg[0] = srcAttr[0] / float64(deg)
	return true
}

// MergeIdentity implements template.Algorithm.
func (p *PageRank) MergeIdentity(msg []float64) { msg[0] = 0 }

// MSGMerge implements template.Algorithm: contributions sum.
func (p *PageRank) MSGMerge(acc, msg []float64) { acc[0] += msg[0] }

// MSGApply implements template.Algorithm.
func (p *PageRank) MSGApply(ctx *template.Context, _ graph.VertexID, attr, msg []float64, received bool) bool {
	sum := 0.0
	if received {
		sum = msg[0]
	}
	next := (1-p.Damping)/float64(ctx.NumVertices) + p.Damping*sum
	changed := math.Abs(next-attr[0]) > p.Tol
	attr[0] = next
	return changed
}

// Hints implements template.Algorithm.
func (p *PageRank) Hints() template.Hints {
	return template.Hints{
		GenAll:       true, // every vertex contributes every iteration
		ApplyAll:     true, // base-rank term applies even with no inbound mass
		OpsPerEdge:   80,
		OpsPerVertex: 40,
		Incremental:  true,
		SourceOnly:   true, // rank/outdeg: the destination and weight never enter
		Merge:        template.MergeSum,
	}
}

// RefPageRank runs the identical synchronous iteration sequentially and
// returns final ranks plus the iteration count. maxIter == 0 runs to
// convergence under the same per-vertex tolerance.
func RefPageRank(g *graph.Graph, damping, tol float64, maxIter int) ([]float64, int) {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1.0 / float64(n)
	}
	iters := 0
	for {
		if maxIter > 0 && iters >= maxIter {
			break
		}
		for v := range next {
			next[v] = 0
		}
		for v := 0; v < n; v++ {
			deg := g.OutDegree(graph.VertexID(v))
			if deg == 0 {
				continue
			}
			share := rank[v] / float64(deg)
			g.OutEdges(graph.VertexID(v), func(dst graph.VertexID, _ float64) {
				next[dst] += share
			})
		}
		changed := false
		for v := 0; v < n; v++ {
			val := (1-damping)/float64(n) + damping*next[v]
			if math.Abs(val-rank[v]) > tol {
				changed = true
			}
			rank[v] = val
		}
		iters++
		if !changed {
			break
		}
	}
	return rank, iters
}
