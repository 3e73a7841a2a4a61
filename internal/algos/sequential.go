package algos

import (
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// Sequential executes a template algorithm with a plain synchronous
// single-machine loop — the sequential reference every engine path
// (native, plugged, cached, bounded, skipped) is checked against by the
// conformance matrix. It is template.Drive without an iteration hook:
// message generation walks sources in ascending vertex order, one MSGGen
// per edge, and merges arrivals in that order, so the result is a
// deterministic function of (graph, algorithm); engines whose merge
// operators are exact (min, count, flag) must reproduce it bit for bit,
// while floating-point-sum merges (PageRank) may differ in merge order
// only.
//
// It returns the final attribute array (NumVertices × AttrWidth) and the
// number of iterations executed.
func Sequential(g *graph.Graph, a template.Algorithm) ([]float64, int) {
	return template.Drive(g, a, nil)
}
