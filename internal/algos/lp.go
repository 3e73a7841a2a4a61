package algos

import (
	"math"

	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// lpSlots is the capacity of the (label, count) combiner sketch in LP
// messages. Merging label histograms needs unbounded space in general;
// the template requires fixed-width messages, so LP messages carry a
// top-K association list. The merge is exact whenever a vertex sees at
// most lpSlots distinct incoming labels — true for the overwhelming
// majority of vertices on the evaluation graphs — and a documented
// space-saving approximation beyond that.
const lpSlots = 8

// LP is synchronous Label Propagation ("LP"): every vertex starts in its
// own community and repeatedly adopts the most frequent label among its
// in-neighbours, ties broken toward the smaller label. The paper caps LP
// at 15 iterations "to avoid unlimited computation on specific datasets"
// (footnote 4).
type LP struct {
	MaxIter int
}

// NewLP returns LP with the paper's 15-iteration cap.
func NewLP() *LP { return &LP{MaxIter: 15} }

// Name implements template.Algorithm.
func (l *LP) Name() string { return "LP" }

// AttrWidth implements template.Algorithm.
func (l *LP) AttrWidth() int { return 1 }

// MsgWidth implements template.Algorithm: lpSlots (label,count) pairs.
func (l *LP) MsgWidth() int { return 2 * lpSlots }

// Init implements template.Algorithm: own label.
func (l *LP) Init(_ *template.Context, id graph.VertexID, attr []float64) {
	attr[0] = float64(id)
}

// MSGGen implements template.Algorithm: advertise the source's label with
// count 1. Empty slots carry label -1.
func (l *LP) MSGGen(_ *template.Context, _, _ graph.VertexID, _ float64, srcAttr, msg []float64) bool {
	for i := 0; i < lpSlots; i++ {
		msg[2*i] = -1
		msg[2*i+1] = 0
	}
	msg[0] = srcAttr[0]
	msg[1] = 1
	return true
}

// MergeIdentity implements template.Algorithm.
func (l *LP) MergeIdentity(msg []float64) {
	for i := 0; i < lpSlots; i++ {
		msg[2*i] = -1
		msg[2*i+1] = 0
	}
}

// MSGMerge implements template.Algorithm: merge two top-K histograms,
// summing counts of equal labels and keeping the K heaviest entries.
//
// A histogram's filled slots always form a prefix: MergeIdentity empties
// every slot, MSGGen fills slot 0, and mergeLabel fills the first empty
// slot or rewrites a filled one in place. So the first empty slot ends a
// row, in msg and in acc alike. A row not of that form (only hostile bytes
// make one) may merge differently, but never out of bounds.
func (l *LP) MSGMerge(acc, msg []float64) {
	for i := 0; i < lpSlots; i++ {
		label, count := msg[2*i], msg[2*i+1]
		if label < 0 {
			break
		}
		if count <= 0 {
			continue
		}
		mergeLabel(acc, label, count)
	}
}

// mergeLabel folds one (label,count) into a prefix-form histogram row in
// place.
func mergeLabel(acc []float64, label, count float64) {
	minAt, minCount := -1, math.Inf(1)
	for i := 0; i < lpSlots; i++ {
		al, ac := acc[2*i], acc[2*i+1]
		if al == label {
			acc[2*i+1] = ac + count
			return
		}
		if al < 0 {
			acc[2*i] = label
			acc[2*i+1] = count
			return
		}
		if al >= 0 && ac < minCount { // al >= 0: a NaN label is never evicted
			minAt, minCount = i, ac
		}
	}
	// Sketch full: evict the lightest entry if the newcomer is heavier
	// (space-saving flavour; deterministic).
	if minAt >= 0 && count > minCount {
		acc[2*minAt] = label
		acc[2*minAt+1] = count
	}
}

// MSGApply implements template.Algorithm: adopt the heaviest label, ties
// toward the smaller label.
func (l *LP) MSGApply(_ *template.Context, _ graph.VertexID, attr, msg []float64, received bool) bool {
	if !received {
		return false
	}
	best, bestCount := -1.0, 0.0
	for i := 0; i < lpSlots; i++ {
		label, count := msg[2*i], msg[2*i+1]
		if label < 0 || count <= 0 {
			continue
		}
		if count > bestCount || (count == bestCount && label < best) {
			best, bestCount = label, count
		}
	}
	if best < 0 || best == attr[0] {
		return false
	}
	attr[0] = best
	return true
}

// Hints implements template.Algorithm.
func (l *LP) Hints() template.Hints {
	return template.Hints{
		GenAll:        true, // labels re-advertised every iteration
		MaxIterations: l.MaxIter,
		OpsPerEdge:    200, // histogram maintenance
		OpsPerVertex:  60,
		SourceOnly:    true, // the source's label with count 1
	}
}

// RefLP runs sequential synchronous label propagation with an exact mode
// computation and the same tie-breaking, capped at maxIter iterations.
// It returns the final labels and the iterations executed.
func RefLP(g *graph.Graph, maxIter int) ([]float64, int) {
	n := g.NumVertices()
	label := make([]float64, n)
	next := make([]float64, n)
	for v := range label {
		label[v] = float64(v)
	}
	iters := 0
	for it := 0; maxIter == 0 || it < maxIter; it++ {
		changed := false
		for v := 0; v < n; v++ {
			counts := make(map[float64]float64)
			g.InEdges(graph.VertexID(v), func(src graph.VertexID, _ float64) {
				counts[label[src]]++
			})
			if len(counts) == 0 {
				next[v] = label[v]
				continue
			}
			best, bestCount := -1.0, 0.0
			//gxlint:ordered the winner is the (count, smallest-label) maximum, which is commutative: no visit order changes it
			for lab, c := range counts {
				if c > bestCount || (c == bestCount && lab < best) {
					best, bestCount = lab, c
				}
			}
			next[v] = best
			if best != label[v] {
				changed = true
			}
		}
		copy(label, next)
		iters++
		if !changed {
			break
		}
	}
	return label, iters
}
