package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"gxplug/internal/graph"
	"gxplug/internal/le"
)

// This file implements incremental recomputation over timestamped edge
// batches: after a batch mutates the graph, a run can replay the
// previous version's memoized trajectory and recompute only the "cone"
// of vertices whose per-superstep results could possibly differ. The
// contract is exact: the incremental run produces attributes, frontier
// evolution, and iteration count bit-identical to a from-scratch run on
// the new graph, and never charges more virtual time to any node in any
// superstep (its gen edges, inbox rows, applied vertices, and message
// volumes are all subsets of the from-scratch run's).
//
// The induction behind the cone: cone_0 is the static dirty seed D
// (vertices whose relevant degrees or merge fold order changed between
// graph versions). After superstep i, diff_i is the set of computed cone
// vertices whose post-state or activity flag differs from the memo;
// cone_{i+1} = D ∪ diff_i ∪ outNbrs(diff_i). A vertex
// outside cone_i has no in-neighbour in diff_{i-1}, matched the memo
// after superstep i-1, and kept its edge structure and fold order — so
// its from-scratch superstep-i result equals the memoized one, and
// copying the memo row is exact, not approximate.

// BatchStream makes a run dynamic: Config.Graph is the initial graph
// version, and each batch opens a new boundary whose graph is the
// previous one with the batch applied.
type BatchStream struct {
	// Batches are applied in order, one boundary each.
	Batches []graph.EdgeBatch
	// Scratch recomputes every boundary from nothing. The default
	// (false) is incremental: each boundary records its trajectory and
	// the next replays it over the dirty cone. Attributes are
	// bit-identical either way; only the charged virtual cost differs.
	Scratch bool
	// Boundaries, when non-nil, supplies prepared boundaries the way
	// Config.Partitioning supplies a partitioning: Boundaries(k), for k =
	// 1, 2, … len(Batches) in order, is batch k's boundary, built by
	// NextBoundary from boundary k−1's graph and partitioning (boundary
	// 0's being Config.Graph and the run's partitioning) with the engine
	// default partitioner. A caller that runs one stream many times
	// memoizes them (gx.DatasetCache); nil builds them for this run alone.
	Boundaries func(k int) (*Boundary, error)
}

// Boundary is what a batch boundary runs on, a pure function of the
// stream up to its batch: the graph version, its engine-default
// partitioning and — built on the first incremental run that reads it,
// never by a scratch one — that partitioning's merge signature and the
// dirty seed against the previous boundary. Its graph and partitioning
// never change, and its signature and seed are built at most once, so
// any number of runs may share one.
type Boundary struct {
	g    *graph.Graph
	part *graph.Partitioning
	// prevG and prevPart are the previous boundary's, what the seed
	// compares against.
	prevG    *graph.Graph
	prevPart *graph.Partitioning

	replay sync.Once
	// sig is nil when the vertex count changed: nothing is replayed, so
	// nothing is signed.
	sig    *mergeSig
	dirty  []bool
	nDirty int
}

// NextBoundary builds batch k's boundary from the previous boundary's
// graph version and partitioning: batch applied to prevG, the new
// version partitioned by partition. A batch that does not apply is an
// error naming k.
func NextBoundary(k int, prevG *graph.Graph, prevPart *graph.Partitioning, batch graph.EdgeBatch,
	partition func(*graph.Graph) *graph.Partitioning) (*Boundary, error) {
	g, err := prevG.ApplyBatch(batch)
	if err != nil {
		return nil, fmt.Errorf("engine: batch %d: %w", k, err)
	}
	return &Boundary{g: g, part: partition(g), prevG: prevG, prevPart: prevPart}, nil
}

// Graph returns the boundary's graph version.
func (b *Boundary) Graph() *graph.Graph { return b.g }

// Partitioning returns the boundary's partitioning of Graph.
func (b *Boundary) Partitioning() *graph.Partitioning { return b.part }

// replayInputs returns what an incremental run of the boundary replays
// through — its merge signature (nil after a vertex-count change), its
// dirty seed and the seed's size — signing and seeding on the first
// call.
func (b *Boundary) replayInputs() (*mergeSig, []bool, int) {
	b.replay.Do(func() {
		var s dirtySeeder
		b.dirty = s.seed(b.prevG, b.g, b.prevPart, b.part)
		if b.prevG.NumVertices() == b.g.NumVertices() {
			b.sig = &s.sig
		}
		for _, d := range b.dirty {
			if d {
				b.nDirty++
			}
		}
	})
	return b.sig, b.dirty, b.nDirty
}

// chainBoundaries is the boundary source of a stream supplied without
// one: each boundary built from the one before, for this run alone.
func (p *plan) chainBoundaries() func(k int) (*Boundary, error) {
	cfg := p.cfg
	g, part := cfg.Graph, p.part
	return func(k int) (*Boundary, error) {
		b, err := NextBoundary(k, g, part, cfg.Stream.Batches[k-1], func(ng *graph.Graph) *graph.Partitioning {
			return cfg.Spec.Partition(ng, cfg.Nodes)
		})
		if err != nil {
			return nil, err
		}
		g, part = b.g, b.part
		return b, nil
	}
}

// trace is the memoized trajectory of one boundary's run: the full
// attribute array and active frontier after every superstep.
type trace struct {
	// attrs[i] is the authoritative attribute array after superstep i.
	attrs [][]float64
	// changed[i] is the active frontier after superstep i (the
	// per-vertex changed flags mergeApplyPhase installed).
	changed [][]bool
}

// recycle empties the trace for a new recording that writes over the
// frames it holds: truncated, not dropped, so record finds them again.
func (t *trace) recycle() {
	t.attrs, t.changed = t.attrs[:0], t.changed[:0]
}

// record appends the state after one superstep.
func (t *trace) record(attrs []float64, active []bool) {
	t.attrs = appendFrame(t.attrs, attrs)
	t.changed = appendFrame(t.changed, active)
}

// appendFrame appends a copy of src to frames. The copy goes into the
// frame a recycled trace still holds at that index when there is one —
// append reallocates it if the vertex count outgrew it.
func appendFrame[T any](frames [][]T, src []T) [][]T {
	i := len(frames)
	if i < cap(frames) {
		frames = frames[:i+1]
	} else {
		frames = append(frames, nil)
	}
	frames[i] = append(frames[i][:0], src...)
	return frames
}

// BatchResult reports one batch boundary of a dynamic-graph run:
// boundary 0 is the seed run on the initial graph, boundary k the run
// after applying batch k. All times are virtual.
type BatchResult struct {
	// Seq is the boundary index (0 for the seed run).
	Seq int `json:"seq"`
	// Time is the makespan of this boundary's run, excluding ApplyTime.
	Time time.Duration `json:"time"`
	// ApplyTime is the charged cost of applying the batch (zero at Seq 0).
	ApplyTime time.Duration `json:"apply_time"`
	// Iterations is the superstep count of this boundary's run.
	Iterations int `json:"iterations"`
	// Adds and Removes are the batch's mutation counts (zero at Seq 0).
	Adds    int `json:"adds"`
	Removes int `json:"removes"`
	// Dirty is the static dirty-seed size the incremental run started
	// from (zero at Seq 0 and on from-scratch boundaries).
	Dirty int `json:"dirty"`
	// AttrsDigest fingerprints the boundary's final attribute bits.
	AttrsDigest string `json:"attrs_digest"`
}

// AttrsDigest returns the lowercase hex SHA-256 of an attribute array's
// exact bit pattern (each float64 little-endian). Equal digests mean
// bit-identical results.
func AttrsDigest(attrs []float64) string {
	h := sha256.New()
	var buf [512]byte
	for len(attrs) > 0 {
		n := min(len(attrs), len(buf)/8)
		le.Put(buf[:], attrs[:n])
		h.Write(buf[:8*n])
		attrs = attrs[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runStream executes a resolved dynamic run: the seed boundary on the
// initial graph, then per batch the boundary the plan's source prepared
// — the batch applied, the version re-partitioned with the engine
// default — charging the identical batch-application cost in both
// modes. In incremental mode every boundary records its trajectory and
// the next replays it over the dirty cone.
//
// A boundary's graph version, partitioning, merge signature and dirty
// seed come prepared; what the stream builds itself is per run: two
// traces that trade places — a boundary records over the frames of the
// trace the previous boundary finished replaying.
func runStream(p *plan) (*Result, error) {
	cfg, st := p.cfg, p.cfg.Stream
	total := &Result{Batches: make([]BatchResult, 0, len(st.Batches)+1)}
	g, part := cfg.Graph, p.part
	// memo is the trajectory the previous boundary recorded; rec is the
	// one it replayed, free to be recorded over.
	var memo, rec *trace
	if !st.Scratch {
		memo, rec = &trace{}, &trace{}
	}
	for seq := 0; seq <= len(st.Batches); seq++ {
		br := BatchResult{Seq: seq}
		var inc *incState
		if seq > 0 {
			b, err := p.boundaries(seq)
			if err != nil {
				return nil, err
			}
			batch := st.Batches[seq-1]
			br.Adds, br.Removes = len(batch.Adds), len(batch.Removes)
			br.ApplyTime = batchApplyCost(br.Adds, br.Removes)
			if !st.Scratch {
				// The seed compares against the previous boundary's
				// partitioning, the fold order the memo was computed under.
				sig, dirty, nDirty := b.replayInputs()
				br.Dirty = nDirty
				replay := memo
				if sig == nil {
					// Vertex growth invalidates the memo entirely (Init
					// reads NumVertices); the seed is all-dirty anyway.
					replay = nil
				}
				inc = newIncState(replay, dirty, sig, cfg.Nodes)
			}
			g, part = b.g, b.part
		}
		bp := *p
		bp.cfg.Graph, bp.part = g, part
		r := newRunner(&bp)
		r.batch = seq
		if !st.Scratch {
			rec.recycle()
			r.traceRec = rec
			r.inc = inc
		}
		res, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("engine: batch boundary %d: %w", seq, err)
		}
		memo, rec = rec, memo
		br.Time, br.Iterations, br.AttrsDigest = res.Time, res.Iterations, AttrsDigest(res.Attrs)
		total.Batches = append(total.Batches, br)
		// Streams are native-only: no skipped syncs, middleware time or
		// agent stats to total.
		total.Attrs, total.Cluster = res.Attrs, res.Cluster
		total.Iterations += res.Iterations
		total.Time += res.Time + br.ApplyTime
		total.UpperTime += res.UpperTime + br.ApplyTime
	}
	return total, nil
}

// incState is the runner's live incremental bookkeeping.
type incState struct {
	trace *trace
	dirty []bool
	// cone is the current superstep's possibly-differing vertex set and
	// coneList the same set in ascending order; both are read
	// concurrently by the parallel gen/apply fan-out and mutated only
	// between phases.
	cone     []bool
	coneList []graph.VertexID
	// full switches off replay: every vertex is computed (entered when
	// the trace is exhausted or absent).
	full bool
	// diffPer[j] collects, per node, the cone vertices whose computed
	// result diverged from the memo this superstep.
	diffPer [][]graph.VertexID
	// sig is the boundary partitioning's merge signature: a replayed gen
	// gathers each cone vertex's in-edges through it (runner.gatherCone).
	// It is shared with every run of the boundary and only read.
	sig *mergeSig
}

// newIncState starts replaying prev (nil: nothing to replay, the whole
// computation runs in the cone) from the static dirty seed over the new
// graph's vertices; sig must be signed from the partitioning the replay
// runs on whenever prev is not nil.
func newIncState(prev *trace, dirty []bool, sig *mergeSig, nodes int) *incState {
	s := &incState{
		trace:    prev,
		dirty:    dirty,
		cone:     make([]bool, len(dirty)),
		coneList: make([]graph.VertexID, 0, len(dirty)),
		diffPer:  make([][]graph.VertexID, nodes),
		sig:      sig,
	}
	if prev == nil || len(prev.attrs) == 0 {
		s.full = true
		return s
	}
	s.listCone()
	return s
}

// listCone adds the dirty seed to the vertices marked in cone and lists
// the result, ascending, in coneList.
func (s *incState) listCone() {
	list := s.coneList[:0]
	for v, d := range s.dirty {
		if d || s.cone[v] {
			s.cone[v] = true
			list = append(list, graph.VertexID(v))
		}
	}
	s.coneList = list
}

// coneFilter returns the current superstep's cone, or nil when every
// vertex is computed (no replay, or the memo is exhausted).
func (s *incState) coneFilter() []bool {
	if s == nil || s.full {
		return nil
	}
	return s.cone
}

// updateCone advances cone_i to cone_{i+1} after superstep i's apply.
// It must run after mergeApplyPhase and before any gen that produces
// superstep i+1's messages (the end-of-round GAS scatter in particular).
func (r *runner) updateCone() {
	inc := r.inc
	if inc == nil || inc.full {
		return
	}
	if r.ctx.Iteration+1 >= len(inc.trace.attrs) {
		// The memo ends here: every later superstep computes everything.
		inc.full = true
		return
	}
	for _, v := range inc.coneList {
		inc.cone[v] = false
	}
	outOff, outDst, _, _, _, _ := r.g.CSR()
	for j := range inc.diffPer {
		for _, id := range inc.diffPer[j] {
			inc.cone[id] = true
			for _, dst := range outDst[outOff[id]:outOff[id+1]] {
				inc.cone[dst] = true
			}
		}
	}
	inc.listCone()
}

// DirtySeed computes the static dirty seed between two graph versions
// under their (engine-default, deterministic) partitionings: the
// vertices whose superstep results could differ even with identical
// inputs. A vertex is dirty when
//   - its own in- or out-degree changed — Init and MSGApply may read
//     them through the Context;
//   - it is a new-graph out-neighbour of a vertex whose degree changed —
//     MSGGen may read the source's degrees (PageRank divides by
//     out-degree);
//   - its merge fold order changed: the owner node or the per-node
//     ordered sequence of partition edges targeting it differs. Every
//     edge sits in exactly one part, so this also covers any change to
//     its in-edges' sources or weight bits. Merging is floating-point, so
//     the fold tree is compared exactly — no hashing, a collision would
//     silently break bit-identity.
//
// The order of a vertex's in-CSR list is not compared: nothing in a run
// reads it (partitions are built from the out-CSR, and a replay gathers
// through the merge signature).
//
// A vertex-count change invalidates everything (Init may read
// NumVertices): the seed is all-dirty and runStream drops the trace.
func DirtySeed(oldG, newG *graph.Graph, oldPart, newPart *graph.Partitioning) []bool {
	return new(dirtySeeder).seed(oldG, newG, oldPart, newPart)
}

// dirtySeeder computes dirty seeds: it signs the new partitioning into
// sig and streams the old one against it with one cursor per node and
// destination. The zero value is ready; the seed a call returns is the
// caller's, and so is sig, which the next call replaces.
type dirtySeeder struct {
	sig  mergeSig
	next []int64
}

// seed returns the dirty seed between oldG and newG (see DirtySeed).
func (s *dirtySeeder) seed(oldG, newG *graph.Graph, oldPart, newPart *graph.Partitioning) []bool {
	n := newG.NumVertices()
	dirty := make([]bool, n)
	if oldG == nil || oldPart == nil ||
		oldG.NumVertices() != n || oldPart.NumNodes() != newPart.NumNodes() {
		for i := range dirty {
			dirty[i] = true
		}
		return dirty
	}

	// Degrees: the offset arrays alone. A vertex whose degree changed may
	// read it in Init/MSGApply; its out-neighbours receive messages that
	// may read the source's degrees in MSGGen.
	oOutOff, _, _, oInOff, _, _ := oldG.CSR()
	nOutOff, nOutDst, _, nInOff, _, _ := newG.CSR()
	for v := 0; v < n; v++ {
		if oOutOff[v+1]-oOutOff[v] != nOutOff[v+1]-nOutOff[v] ||
			oInOff[v+1]-oInOff[v] != nInOff[v+1]-nInOff[v] {
			dirty[v] = true
			for _, dst := range nOutDst[nOutOff[v]:nOutOff[v+1]] {
				dirty[dst] = true
			}
		}
	}

	// Fold order: only the new partitioning's signature is materialized.
	// The old one is streamed against it — each old part's edges in fold
	// order, each compared with the entry its (node, destination) cursor
	// stands on — which is the element-for-element comparison of the two
	// signatures without building the second. The cursor bounds (one
	// sequence a strict prefix of the other) make it complete on its own,
	// though the degree pass above has dirtied every such vertex already.
	s.sign(newPart)
	sig := &s.sig
	for j, p := range oldPart.Parts {
		next, end := s.next[j*n:(j+1)*n], sig.off[j*n+1:(j+1)*n+1]
		for _, e := range p.Edges {
			if dirty[e.Dst] {
				continue
			}
			k := next[e.Dst]
			if k == end[e.Dst] || sig.src[k] != e.Src || math.Float64bits(sig.w[k]) != math.Float64bits(e.Weight) {
				dirty[e.Dst] = true
				continue
			}
			next[e.Dst] = k + 1
		}
	}
	for j := range oldPart.Parts {
		next, end := s.next[j*n:(j+1)*n], sig.off[j*n+1:(j+1)*n+1]
		for v := range next {
			if next[v] != end[v] {
				dirty[v] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		if oldPart.Owner[v] != newPart.Owner[v] {
			dirty[v] = true
		}
	}
	return dirty
}

// mergeSig is a partitioning's merge signature laid out node-major: for
// node j and destination v, src[k] and w[k] over k in [off[j*n+v],
// off[j*n+v+1]) are the sources and weights of node j's partition edges
// into v, in partition order. Per destination, nodes ascending and each
// node's range in order is exactly the order routeRemote and nativeGen
// fold v's messages in; node j's range alone is what a replayed gen on
// node j gathers into v's row. It is only read once signed.
type mergeSig struct {
	n   int
	off []int64
	src []graph.VertexID
	w   []float64
}

// A source's state in a replayed gen, as bits: inactive (its edges are
// neither generated nor counted), active without a message (counted), or
// active with one (counted and folded).
const (
	srcSkip uint8 = 0
	srcNone uint8 = 1
	srcMsg  uint8 = 3
)

// sign materializes part's merge signature in a new s.sig and leaves
// every cursor s.next[j*n+v] on the first entry of node j's range for v.
// It is a counting sort of every part's edges by (node, destination):
// the counts go into off, shifted one entry up, and their prefix sum
// makes them the ranges' starts.
func (s *dirtySeeder) sign(part *graph.Partitioning) {
	n, m := part.Graph.NumVertices(), len(part.Parts)
	sig := mergeSig{n: n, off: make([]int64, m*n+1)}
	for j, p := range part.Parts {
		count := sig.off[j*n+1 : (j+1)*n+1]
		for _, e := range p.Edges {
			count[e.Dst]++
		}
	}
	for i := 1; i < len(sig.off); i++ {
		sig.off[i] += sig.off[i-1]
	}
	edges := sig.off[m*n]
	sig.src, sig.w = make([]graph.VertexID, edges), make([]float64, edges)
	s.next = append(s.next[:0], sig.off[:m*n]...)
	for j, p := range part.Parts {
		next := s.next[j*n : (j+1)*n]
		for _, e := range p.Edges {
			k := next[e.Dst]
			sig.src[k], sig.w[k] = e.Src, e.Weight
			next[e.Dst] = k + 1
		}
	}
	copy(s.next, sig.off[:m*n])
	s.sig = sig
}
