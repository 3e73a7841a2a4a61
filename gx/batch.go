package gx

import (
	"crypto/sha256"
	"fmt"
	"math"

	"gxplug/internal/engine"
	"gxplug/internal/graph"
)

// This file implements the dynamic-graph scenario axis: a scenario may
// carry a stream of timestamped edge batches, turning one run into a
// sequence of batch boundaries over an evolving graph. The stream comes
// either from a `.gxb` batch-stream file (gxgen -batches, or a text
// delta list) or inline in the scenario JSON. This package only
// describes the stream and loads it; the boundary loop — and what each
// mode costs — is the engine's (engine.BatchStream). At each boundary
// the engine either recomputes from scratch or — the default — replays
// the previous boundary's recorded trajectory incrementally; the two
// modes are bit-identical by contract and differ only in virtual cost.

// BatchSpec declares a scenario's edge-batch stream. Exactly one of
// Stream and Inline must be set.
type BatchSpec struct {
	// Stream references a batch-stream file on disk:
	//
	//	file+batches:PATH            format sniffed (.gxb binary stream
	//	                             or text delta list, gzip accepted)
	//	file+batches:PATH#sha256=HEX content pinned to a digest
	//
	// Timestamps in the stream must be strictly increasing.
	Stream string `json:"stream,omitempty"`
	// Inline carries the batches directly in the scenario, for small
	// deltas and tests. Times must be strictly increasing.
	Inline []BatchDelta `json:"inline,omitempty"`
	// Mode selects the recomputation strategy at batch boundaries:
	// "incremental" (the default when empty) replays the previous
	// boundary's trace over the dirty cone and needs the algorithm's
	// Hints().Incremental opt-in (pagerank and cc have it; without it
	// the run is rejected before any superstep); "scratch" recomputes
	// every boundary from nothing and runs every algorithm. Results are
	// bit-identical either way.
	Mode string `json:"mode,omitempty"`
}

// BatchDelta is one inline timestamped batch.
type BatchDelta struct {
	Time    int64       `json:"time"`
	Adds    []BatchEdge `json:"adds,omitempty"`
	Removes []BatchEdge `json:"removes,omitempty"`
}

// BatchEdge is one inline edge mutation. A zero Weight on an add means
// weight 1 (matching unweighted edge-list loading); removes ignore the
// weight entirely.
type BatchEdge struct {
	Src    int64   `json:"src"`
	Dst    int64   `json:"dst"`
	Weight float64 `json:"weight,omitempty"`
}

// Batch-mode names accepted in BatchSpec.Mode.
const (
	batchModeIncremental = "incremental"
	batchModeScratch     = "scratch"
)

// validate appends batch-spec shape errors through the scenario
// validator's fail hook.
func (b *BatchSpec) validate(fail func(format string, args ...any)) {
	switch {
	case b.Stream == "" && len(b.Inline) == 0:
		fail("batches: one of stream or inline is required")
	case b.Stream != "" && len(b.Inline) > 0:
		fail("batches: stream and inline are mutually exclusive")
	}
	if b.Mode != "" && b.Mode != batchModeIncremental && b.Mode != batchModeScratch {
		fail("batches: unknown mode %q (want %q or %q)", b.Mode, batchModeIncremental, batchModeScratch)
	}
	if b.Stream != "" {
		if ref, err := streamRef(b.Stream); err != nil {
			fail("%v", err)
		} else if _, err := ref.stat(); err != nil {
			fail("batches: stream %q: %w", b.Stream, err)
		}
	}
	prev := int64(math.MinInt64)
	for i, d := range b.Inline {
		if d.Time <= prev && i > 0 {
			fail("batches: inline[%d] time %d not after %d (times must be strictly increasing)", i, d.Time, prev)
		}
		prev = d.Time
		for _, e := range d.Adds {
			if err := checkBatchEdge(e, true); err != nil {
				fail("batches: inline[%d] add %d->%d: %v", i, e.Src, e.Dst, err)
			}
		}
		for _, e := range d.Removes {
			if err := checkBatchEdge(e, false); err != nil {
				fail("batches: inline[%d] remove %d->%d: %v", i, e.Src, e.Dst, err)
			}
		}
	}
}

func checkBatchEdge(e BatchEdge, add bool) error {
	if e.Src < 0 || e.Dst < 0 || e.Src > math.MaxUint32 || e.Dst > math.MaxUint32 {
		return fmt.Errorf("vertex id out of range")
	}
	if add && (math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight < 0) {
		return fmt.Errorf("weight %v not finite and non-negative", e.Weight)
	}
	return nil
}

// loadBatches materializes the spec's stream as engine edge batches,
// with the stream's content identity; stream files load through cache.
// Callers must not mutate the result.
func (b *BatchSpec) loadBatches(cache *DatasetCache) ([]graph.EdgeBatch, streamID, error) {
	if b.Stream != "" {
		return cache.batchStream(b.Stream)
	}
	batches := make([]graph.EdgeBatch, len(b.Inline))
	for i, d := range b.Inline {
		eb := graph.EdgeBatch{Time: d.Time}
		for _, e := range d.Adds {
			w := e.Weight
			if w == 0 {
				w = 1
			}
			eb.Adds = append(eb.Adds, graph.Edge{
				Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst), Weight: w,
			})
		}
		for _, e := range d.Removes {
			eb.Removes = append(eb.Removes, graph.Edge{
				Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst), Weight: 1,
			})
		}
		batches[i] = eb
	}
	// The printed form is exact: %v prints each weight in the fewest
	// digits that read back to its bits.
	h := sha256.New()
	fmt.Fprint(h, batches)
	return batches, streamID{inline: string(h.Sum(nil))}, nil
}

// normalized returns a canonical copy for digesting: the default mode
// spelled out, empty inline slices nil. Spelling the default explicitly
// keeps `"mode": "incremental"` and an omitted mode the same scenario —
// they run identically — while "scratch" digests differently (it changes
// the charged virtual cost).
func (b *BatchSpec) normalized() *BatchSpec {
	if b == nil {
		return nil
	}
	n := &BatchSpec{Stream: b.Stream, Mode: b.Mode}
	if n.Mode == "" {
		n.Mode = batchModeIncremental
	}
	if len(b.Inline) > 0 {
		n.Inline = append([]BatchDelta(nil), b.Inline...)
	}
	return n
}

// Engine-layer dynamic-graph types re-exported at the gx surface.
type (
	// EdgeBatch is one timestamped set of graph mutations.
	EdgeBatch = graph.EdgeBatch
	// BatchResult reports one batch boundary of a dynamic run.
	BatchResult = engine.BatchResult
)
