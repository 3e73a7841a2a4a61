package algos

import (
	"fmt"
	"math"

	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// SSSPBF is the multi-source Bellman-Ford of the evaluation ("SSSP-BF"):
// the paper uses 4 source vertices and computes all their shortest-path
// trees simultaneously "to make it more compute-intensive" (footnote 4).
// The attribute row holds one distance per source; messages carry
// candidate distances and merge by element-wise minimum.
type SSSPBF struct {
	sources []graph.VertexID
}

// NewSSSPBF creates the algorithm for the given sources (the paper's
// configuration uses 4).
func NewSSSPBF(sources []graph.VertexID) *SSSPBF {
	if len(sources) == 0 {
		panic("algos: SSSP with no sources")
	}
	s := make([]graph.VertexID, len(sources))
	copy(s, sources)
	return &SSSPBF{sources: s}
}

// DefaultSources picks the paper's count of 4 source vertices,
// deterministically spread over the vertex range.
func DefaultSources(numV int) []graph.VertexID {
	if numV < 1 {
		panic(fmt.Sprintf("algos: %d vertices", numV))
	}
	out := make([]graph.VertexID, 0, 4)
	for i := 0; i < 4; i++ {
		out = append(out, graph.VertexID(i*numV/4))
	}
	return out
}

// Sources converts user-supplied vertex ids (e.g. from a scenario file)
// into validated source vertices, falling back to DefaultSources when ids
// is empty. Unlike the constructors it never panics: scenario input is
// runtime data, not program constants.
func Sources(ids []int64, numV int) ([]graph.VertexID, error) {
	if numV < 1 {
		return nil, fmt.Errorf("algos: %d vertices", numV)
	}
	if len(ids) == 0 {
		return DefaultSources(numV), nil
	}
	out := make([]graph.VertexID, len(ids))
	for i, id := range ids {
		if id < 0 || id >= int64(numV) {
			return nil, fmt.Errorf("algos: source %d outside [0, %d)", id, numV)
		}
		out[i] = graph.VertexID(id)
	}
	return out, nil
}

// Sources implements template.Sourced.
func (s *SSSPBF) Sources() []graph.VertexID { return s.sources }

// Name implements template.Algorithm.
func (s *SSSPBF) Name() string { return "SSSP-BF" }

// AttrWidth implements template.Algorithm.
func (s *SSSPBF) AttrWidth() int { return len(s.sources) }

// MsgWidth implements template.Algorithm.
func (s *SSSPBF) MsgWidth() int { return len(s.sources) }

// Init implements template.Algorithm: +Inf everywhere, 0 at each source's
// own slot.
func (s *SSSPBF) Init(_ *template.Context, id graph.VertexID, attr []float64) {
	for i := range attr {
		attr[i] = math.Inf(1)
	}
	for i, src := range s.sources {
		if id == src {
			attr[i] = 0
		}
	}
}

// MSGGen implements template.Algorithm: relax the edge for every source
// slot with a finite distance.
func (s *SSSPBF) MSGGen(_ *template.Context, _, _ graph.VertexID, w float64, srcAttr, msg []float64) bool {
	any := false
	for i, d := range srcAttr {
		if math.IsInf(d, 1) {
			msg[i] = math.Inf(1)
			continue
		}
		msg[i] = d + w
		any = true
	}
	return any
}

// MergeIdentity implements template.Algorithm.
func (s *SSSPBF) MergeIdentity(msg []float64) {
	for i := range msg {
		msg[i] = math.Inf(1)
	}
}

// MSGMerge implements template.Algorithm: element-wise min.
func (s *SSSPBF) MSGMerge(acc, msg []float64) {
	for i, v := range msg {
		if v < acc[i] {
			acc[i] = v
		}
	}
}

// MSGApply implements template.Algorithm.
func (s *SSSPBF) MSGApply(_ *template.Context, _ graph.VertexID, attr, msg []float64, received bool) bool {
	if !received {
		return false
	}
	changed := false
	for i, v := range msg {
		if v < attr[i] {
			attr[i] = v
			changed = true
		}
	}
	return changed
}

// Hints implements template.Algorithm. Not SourceOnly: the message is the
// source's distance plus the edge's weight.
func (s *SSSPBF) Hints() template.Hints {
	return template.Hints{
		OpsPerEdge:   40 * float64(len(s.sources)),
		OpsPerVertex: 20 * float64(len(s.sources)),
		Merge:        template.MergeMin,
	}
}

// RefSSSPBF runs sequential Bellman-Ford for all sources and returns the
// distance matrix (row-major, stride len(sources)) plus the number of
// relaxation rounds performed.
func RefSSSPBF(g *graph.Graph, sources []graph.VertexID) ([]float64, int) {
	n := g.NumVertices()
	k := len(sources)
	dist := make([]float64, n*k)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for i, s := range sources {
		dist[int(s)*k+i] = 0
	}
	rounds := 0
	for {
		changed := false
		for v := 0; v < n; v++ {
			row := dist[v*k : (v+1)*k]
			finite := false
			for _, d := range row {
				if !math.IsInf(d, 1) {
					finite = true
					break
				}
			}
			if !finite {
				continue
			}
			g.OutEdges(graph.VertexID(v), func(dst graph.VertexID, w float64) {
				drow := dist[int(dst)*k : int(dst)*k+k]
				for i, d := range row {
					if nd := d + w; nd < drow[i] {
						drow[i] = nd
						changed = true
					}
				}
			})
		}
		rounds++
		if !changed {
			break
		}
	}
	return dist, rounds
}
