package template

import (
	"gxplug/internal/graph"
)

// IterStats reports what one synchronous iteration did; cost models hook
// on these numbers.
type IterStats struct {
	// Iteration is the zero-based index.
	Iteration int
	// Edges is the number of edge triplets MSGGen processed.
	Edges int
	// Applied is the number of vertices MSGApply ran on.
	Applied int
	// Changed is the number of vertices that changed.
	Changed int
}

// Drive executes an algorithm sequentially with exact synchronous
// semantics — the oracle loop every engine in this repository must agree
// with, and the compute core of the standalone baselines. onIter, if not
// nil, is called after each iteration; returning false stops the run
// early (baselines use it to inject cost accounting and caps).
func Drive(g *graph.Graph, a Algorithm, onIter func(IterStats) bool) ([]float64, int) {
	n := g.NumVertices()
	aw, mw := a.AttrWidth(), a.MsgWidth()
	ctx := &Context{
		NumVertices: n,
		OutDeg:      func(v graph.VertexID) int { return g.OutDegree(v) },
		InDeg:       func(v graph.VertexID) int { return g.InDegree(v) },
	}
	attrs := make([]float64, n*aw)
	for v := 0; v < n; v++ {
		a.Init(ctx, graph.VertexID(v), attrs[v*aw:(v+1)*aw])
	}
	active := InitialFrontier(a, n)
	hints := a.Hints()
	msg := make([]float64, mw)
	iters := 0
	for {
		if hints.MaxIterations > 0 && iters >= hints.MaxIterations {
			break
		}
		anyActive := hints.GenAll
		for _, ac := range active {
			if ac {
				anyActive = true
				break
			}
		}
		if !anyActive && !hints.ApplyAll {
			break
		}

		ctx.Iteration = iters
		acc := make([]float64, n*mw)
		recv := make([]bool, n)
		for v := 0; v < n; v++ {
			a.MergeIdentity(acc[v*mw : (v+1)*mw])
		}
		st := IterStats{Iteration: iters}
		for v := 0; v < n; v++ {
			if !hints.GenAll && !active[v] {
				continue
			}
			src := graph.VertexID(v)
			g.OutEdges(src, func(dst graph.VertexID, w float64) {
				st.Edges++
				// A clean row per edge: a slot MSGGen leaves unwritten reads
				// as zero here, whatever the executors' reused rows hold.
				clear(msg)
				if a.MSGGen(ctx, src, dst, w, attrs[v*aw:(v+1)*aw], msg) {
					a.MSGMerge(acc[int(dst)*mw:int(dst)*mw+mw], msg)
					recv[dst] = true
				}
			})
		}
		next := make([]bool, n)
		changed := false
		for v := 0; v < n; v++ {
			if !recv[v] && !hints.ApplyAll {
				continue
			}
			st.Applied++
			if a.MSGApply(ctx, graph.VertexID(v), attrs[v*aw:(v+1)*aw], acc[v*mw:(v+1)*mw], recv[v]) {
				next[v] = true
				changed = true
				st.Changed++
			}
		}
		active = next
		iters++
		if onIter != nil && !onIter(st) {
			break
		}
		if !changed {
			break
		}
	}
	return attrs, iters
}
