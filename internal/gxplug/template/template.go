// Package template defines GX-Plug's iteration-based graph algorithm
// template (§IV-A1): an algorithm is three functions — MSGGen, MSGMerge
// and MSGApply — over flat float64 attribute and message rows. Engines
// arrange the calls in whatever order their computation model dictates
// (BSP runs Gen→Merge→Apply, GAS runs Merge→Apply→Gen, §IV-B2); the
// algorithm code is identical either way, which is the template's point.
//
// Attributes and messages are fixed-width float64 rows so that blocks of
// them serialize to shared memory byte-for-byte with no reflection (the
// data packager of §IV-B1). An edge carries at most one message, to its
// destination: MSGGen writes it into a row the executor owns, so
// generation allocates nothing, and every executor — the sequential
// Drive, the engine's native loop, the daemon's kernel — calls it the
// same way.
package template

import (
	"gxplug/internal/graph"
)

// Context carries the per-iteration information an algorithm may read.
type Context struct {
	// Iteration is the zero-based iteration number.
	Iteration int
	// NumVertices is the global vertex count.
	NumVertices int
	// OutDeg and InDeg expose global degrees (upper systems precompute
	// them during loading, as GraphX and PowerGraph both do).
	OutDeg func(graph.VertexID) int
	InDeg  func(graph.VertexID) int
}

// Algorithm is the template implemented per graph algorithm. All methods
// must be safe for concurrent use on disjoint data: MSGGen runs data-
// parallel over triplets on the accelerator, MSGApply over vertices.
type Algorithm interface {
	// Name identifies the algorithm in harness output.
	Name() string

	// AttrWidth is the per-vertex attribute row width.
	AttrWidth() int
	// MsgWidth is the message row width.
	MsgWidth() int

	// Init fills a vertex's initial attribute row.
	Init(ctx *Context, id graph.VertexID, attr []float64)

	// MSGGen computes the initial message of one edge triplet — src and
	// dst with the source's current attributes ("the computation function
	// for calculating the initial results with vertex and edge blocks and
	// transforming them into initial messages") — for dst. It writes the
	// message into msg, a MsgWidth row of the caller's scratch, and reports
	// whether the edge produced one. msg arrives holding whatever the last
	// call left there, so a message must write every slot it carries; its
	// contents are unspecified when MSGGen returns false.
	MSGGen(ctx *Context, src, dst graph.VertexID, w float64, srcAttr, msg []float64) bool

	// MergeIdentity writes the identity element of the merge into msg
	// (e.g. +Inf for min-merges, 0 for sums).
	MergeIdentity(msg []float64)
	// MSGMerge folds msg into acc. It must be associative and commutative:
	// merging happens in parallel on the accelerator and again across
	// distributed nodes.
	MSGMerge(acc, msg []float64)

	// MSGApply applies the merged message to a vertex and reports whether
	// the vertex changed (changed vertices are active next iteration).
	// received is false when no message arrived for the vertex this
	// iteration (only possible when ApplyAll is true).
	MSGApply(ctx *Context, id graph.VertexID, attr, msg []float64, received bool) bool

	// Hints tell engines how to drive and cost the iteration.
	Hints() Hints
}

// Hints describes an algorithm's iteration behaviour and device cost.
type Hints struct {
	// GenAll: run MSGGen over every edge each iteration regardless of the
	// active frontier (PageRank and LP recompute from all contributions;
	// SSSP and CC are frontier-driven).
	GenAll bool
	// ApplyAll: run MSGApply on every vertex each iteration, even those
	// that received no message (PageRank's base-rank term).
	ApplyAll bool
	// MaxIterations caps the iteration count; 0 means run to convergence.
	MaxIterations int
	// OpsPerEdge / OpsPerVertex calibrate the device cost model.
	OpsPerEdge   float64
	OpsPerVertex float64
	// Incremental declares the algorithm safe for trajectory-replay
	// incremental recomputation: its per-superstep results depend only on
	// the previous superstep's attributes and frontier, the incident-edge
	// structure, and the degrees the Context exposes — never on hidden
	// state. All template algorithms satisfy this structurally; the flag
	// is an explicit opt-in so new algorithms state the property.
	Incremental bool
	// SourceOnly declares that the message an edge carries depends only on
	// the source — its id, its attribute row and the Context — never on
	// dst or w, and that MSGMerge leaves the msg it folds untouched. Edge
	// tables are grouped by source, so executors call MSGGen once per
	// source run and merge that one message into every destination of the
	// run, instead of regenerating the same value per edge. SSSP, whose
	// message is d+w, must not declare it.
	// The sequential reference (Drive, algos.Sequential) ignores the flag
	// and stays per-edge: agreeing with it bit for bit is what proves a
	// declaration.
	SourceOnly bool
}

// InitialFrontier returns the initially active vertices for an algorithm.
// Algorithms that implement the optional Sourced interface start from
// their sources; everything else starts all-active.
func InitialFrontier(a Algorithm, numV int) []bool {
	active := make([]bool, numV)
	if s, ok := a.(Sourced); ok {
		for _, v := range s.Sources() {
			if int(v) < numV {
				active[v] = true
			}
		}
		return active
	}
	for i := range active {
		active[i] = true
	}
	return active
}

// Sourced is implemented by algorithms whose computation starts from
// designated source vertices (SSSP).
type Sourced interface {
	Sources() []graph.VertexID
}
