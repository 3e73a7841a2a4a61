package engine

import (
	"errors"
	"fmt"
	"math"

	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/synccache"
	"gxplug/internal/gxplug/template"
	"gxplug/internal/par"
)

// This file implements the two iteration shapes. Both compute the same
// function; they differ in API call order (§IV-B2) — BSP runs
// Gen→Merge→Apply inside one superstep, GAS runs Merge→Apply→Gen with the
// scatter's messages carried into the next round — and in synchronization
// pattern (messages for edge-cuts; gathered partials plus master→mirror
// attribute broadcast for vertex-cuts).

// eachNode runs fn(j) for every node j on the host helper pool (par.Do);
// every phase fans out through it. Nodes touch disjoint state — their own
// masters' attribute rows, frontier entries and clocks — so the fan-out is
// race-free, and every cost is charged to the owning node's virtual clock
// as in sequential execution: host parallelism never changes a simulated
// makespan. The error is the lowest-index node's whatever the schedule; a
// panic in fn — kernels are user code — is that node's error, with its stack.
func (r *runner) eachNode(fn func(j int) error) error {
	err := par.Do(r.cfg.Nodes, fn)
	var p *par.PanicError
	if errors.As(err, &p) {
		return fmt.Errorf("engine: node %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
	}
	return err
}

// genPhase runs MSGGen(+combine) on every node, via agents or natively.
// The result slice is freshly allocated because GAS keeps it alive as the
// scatter carry; the results themselves are reused buffers.
func (r *runner) genPhase() ([]*gxplug.GenResult, error) {
	out := make([]*gxplug.GenResult, r.cfg.Nodes)
	if r.agents == nil {
		r.nativeFlip ^= 1
	}
	err := r.eachNode(func(j int) (err error) {
		if r.agents == nil {
			out[j] = r.nativeGen(j)
			return nil
		}
		out[j], err = r.agents[j].RequestGen(r.activeFn)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// routeRemote folds every sender's buffer for destination o into inbox
// o, and accumulates the pairwise byte volumes into vol. Destinations
// are independent, so the fold fans out like the phases around it. Per
// inbox row the MSGMerge sequence is fixed — senders in node order, each
// contributing the one row it pre-combined in its own edge/block order —
// so floating-point results are machine- and schedule-independent. The
// only error is a panicking MSGMerge.
func (r *runner) routeRemote(results []*gxplug.GenResult, inbox []*gxplug.MsgBuf, vol [][]int64) error {
	err := r.eachNode(func(o int) error {
		for j, res := range results {
			if j == o {
				continue
			}
			out := res.To[o]
			for _, row := range out.Touched() {
				inbox[o].Merge(row, out.Row(row))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	msgBytes := r.cfg.Spec.wireRowBytes(r.mw)
	for j, res := range results {
		for o, out := range res.To {
			if o == j {
				continue
			}
			n := int64(out.Len())
			vol[j][o] += n * msgBytes
			if r.cfg.Observer != nil {
				r.obsMsgs += n
				r.obsBytes += n * msgBytes
			}
		}
	}
	return nil
}

// mergeApplyPhase merges inboxes and applies on every node in parallel,
// updating the frontier. It returns whether anything changed and the
// changed vertices that have mirrors (forcing attribute synchronization
// under vertex-cut), ordered by owning node then master order — a
// deterministic order, unlike the map the routing layer used to build.
func (r *runner) mergeApplyPhase(results []*gxplug.GenResult, inbox []*gxplug.MsgBuf) (changedAny bool, mirrorUpdates []graph.VertexID, err error) {
	err = r.eachNode(func(j int) error {
		masters := r.part.Parts[j].Masters
		var changed, wrote []bool
		if r.agents != nil {
			if err := r.agents[j].RequestMerge(results[j], inbox[j]); err != nil {
				return err
			}
			ar, err := r.agents[j].RequestApply(results[j])
			if err != nil {
				return err
			}
			changed, wrote = ar.Changed, ar.Wrote
		} else {
			r.nativeMerge(j, results[j], inbox[j])
			changed, wrote = r.nativeApply(j, results[j])
		}
		nodeChanged := false
		mirrored := r.mirrorPer[j][:0]
		for mi, ch := range changed {
			id := masters[mi]
			r.active[id] = ch
			if ch {
				nodeChanged = true
			}
			// Any written row must reach its replicas, including
			// sub-threshold drift (PageRank keeps converging mass without
			// reactivating vertices).
			if wrote[mi] && len(r.part.MirrorsOf(id)) > 0 {
				mirrored = append(mirrored, id)
			}
		}
		r.changedPer[j] = nodeChanged
		r.mirrorPer[j] = mirrored
		return nil
	})
	if err != nil {
		return false, nil, err
	}
	for j := 0; j < r.cfg.Nodes; j++ {
		if r.changedPer[j] {
			changedAny = true
		}
		mirrorUpdates = append(mirrorUpdates, r.mirrorPer[j]...)
	}
	return changedAny, mirrorUpdates, nil
}

// drainSpills uploads the dirty rows bounded caches evicted during the
// preceding parallel phase. It runs serialized, immediately after each
// phase's eachNode returns, so the upper system's shared state is never
// written while nodes execute concurrently; each agent's upload cost
// lands on its own node's virtual clock, keeping makespans independent of
// host scheduling. It must precede distributeMirrors/syncPhase: their
// reads of authoritative state expect pending spills to have landed.
func (r *runner) drainSpills() {
	for _, a := range r.agents {
		a.DrainSpill()
	}
}

// distributeMirrors delivers updated master attributes to every replica
// holder (vertex-cut only): exchange volumes are added to vol and agent
// caches are invalidated with the fresh rows. It must run before the next
// MSGGen so mirror reads see current state.
func (r *runner) distributeMirrors(mirrorUpdates []graph.VertexID, vol [][]int64) {
	if len(mirrorUpdates) == 0 {
		return
	}
	if r.cfg.Observer != nil {
		r.obsMirrors += len(mirrorUpdates)
	}
	rowBytes := r.cfg.Spec.wireRowBytes(r.aw)
	perNode := r.mirrorStage
	for j := range perNode {
		perNode[j] = perNode[j][:0]
	}
	for _, id := range mirrorUpdates {
		owner := int(r.part.Owner[id])
		for _, j := range r.part.MirrorsOf(id) {
			vol[owner][j] += rowBytes
			perNode[j] = append(perNode[j], id)
		}
	}
	if r.agents == nil {
		return
	}
	// Owners flush the updated rows to the upper system first (they are
	// dirty in the owners' caches under lazy uploading): the broadcast is
	// exactly the moment these vertices become "involved in the
	// computation of other distributed nodes" (§III-B2b).
	r.query.Reset()
	r.query.Push(mirrorUpdates)
	for _, a := range r.agents {
		a.UploadQueried(r.query)
	}
	for j, ids := range perNode {
		if len(ids) == 0 {
			continue
		}
		rows := r.mirrorRows[:0]
		for _, id := range ids {
			rows = append(rows, r.attrs[int(id)*r.aw:(int(id)+1)*r.aw]...)
		}
		r.mirrorRows = rows
		r.agents[j].InvalidateRemote(ids, rows)
	}
}

// syncPhase performs the global synchronization: message exchange, lazy
// uploads through the global query queue, and the barrier — or skips all
// of it when the iteration produced no cross-node traffic (§III-B3).
func (r *runner) syncPhase(vol [][]int64) {
	var totalRemote int64
	for i := range vol {
		for j := range vol[i] {
			totalRemote += vol[i][j]
		}
	}

	if r.skip && totalRemote == 0 {
		// Synchronization skipping: the upper system is bypassed; only
		// the cheap global flag AND runs (one byte per node).
		ones := make([]int64, r.cfg.Nodes)
		for j := range ones {
			ones[j] = 1
		}
		r.cl.AllGather(bucketUpper, ones)
		r.skipped++
		return
	}

	// Full superstep: scheduling overhead on every node, then the data
	// exchange.
	for _, nd := range r.cl.Nodes() {
		nd.Charge(bucketUpper, r.cfg.Spec.SuperstepOverhead)
	}
	r.cl.Exchange(bucketUpper, vol)

	// Lazy uploading: build the global query queue — vertices any node
	// reads next iteration but does not master — and let agents answer it
	// (§III-B2b). The gather piggybacks on the superstep barrier: it only
	// costs extra when something was actually uploaded. The global data
	// queue holds rows in the middleware's compact layout, not serialized
	// upper-system objects, so it is sized in raw bytes — no MsgByteFactor.
	if r.agents != nil {
		q := r.buildQueryQueue()
		if q.Len() > 0 {
			contributions := make([]int64, r.cfg.Nodes)
			var total int64
			for j, a := range r.agents {
				contributions[j] = int64(a.UploadQueried(q)) * gxplug.RowBytes(r.aw)
				total += contributions[j]
			}
			if total > 0 {
				r.cl.AllGather(bucketUpper, contributions)
			}
		}
	}
}

// buildQueryQueue collects the vertices each node reads next iteration
// but does not master: mirror sources under vertex-cut. (Under edge-cut
// the queue is empty — influence flows through messages alone.)
func (r *runner) buildQueryQueue() *synccache.QueryQueue {
	genAll := r.alg.Hints().GenAll
	ids := r.queryIDs[:0]
	if len(r.part.MirrorNodes) > 0 {
		for v, active := range r.active {
			if (genAll || active) && len(r.part.MirrorsOf(graph.VertexID(v))) > 0 {
				ids = append(ids, graph.VertexID(v))
			}
		}
	}
	r.queryIDs = ids
	r.query.Reset()
	r.query.Push(ids)
	return r.query
}

// scatter is the Gen half of a superstep: MSGGen on every node, then the
// exchange of its messages into a fresh inbox.
func (r *runner) scatter(vol [][]int64) ([]*gxplug.GenResult, []*gxplug.MsgBuf, error) {
	results, err := r.genPhase()
	if err != nil {
		return nil, nil, err
	}
	r.drainSpills()
	inbox := r.nextInbox()
	if err := r.routeRemote(results, inbox, vol); err != nil {
		return nil, nil, err
	}
	return results, inbox, nil
}

// iterateBSP is one bulk-synchronous superstep: Gen → exchange → Merge →
// Apply → sync.
func (r *runner) iterateBSP() (bool, error) {
	vol := r.resetVol()
	results, inbox, err := r.scatter(vol)
	if err != nil {
		return false, err
	}
	changedAny, mirrorUpdates, err := r.mergeApplyPhase(results, inbox)
	if err != nil {
		return false, err
	}
	r.updateCone()
	r.drainSpills()
	r.distributeMirrors(mirrorUpdates, vol)
	r.syncPhase(vol)
	return changedAny, nil
}

// gasCarry is the state a GAS scatter hands to the next round's gather:
// the per-node Gen results (local accumulators) plus the routed inbox.
type gasCarry struct {
	results []*gxplug.GenResult
	inbox   []*gxplug.MsgBuf
}

// iterateGAS is one GAS round in PowerGraph order — Merge (gather) →
// Apply → Gen (scatter). The bootstrap scatter of round 0 flows the
// initial vertex state, as GAS engines do implicitly by reading neighbour
// state during the first gather. Scatter exchange volumes are charged in
// the round that produces them.
func (r *runner) iterateGAS(carry *gasCarry) (bool, *gasCarry, error) {
	vol := r.resetVol()
	if carry == nil {
		results, inbox, err := r.scatter(vol)
		if err != nil {
			return false, nil, err
		}
		carry = &gasCarry{results: results, inbox: inbox}
	}
	changedAny, mirrorUpdates, err := r.mergeApplyPhase(carry.results, carry.inbox)
	if err != nil {
		return false, nil, err
	}
	// The cone must advance before the end-of-round scatter: its messages
	// are consumed by the next round's apply, which replays the next memo.
	r.updateCone()
	r.drainSpills()
	// Mirrors must see the applied state before the scatter reads them.
	r.distributeMirrors(mirrorUpdates, vol)
	var next *gasCarry
	if changedAny {
		results, inbox, err := r.scatter(vol)
		if err != nil {
			return false, nil, err
		}
		next = &gasCarry{results: results, inbox: inbox}
	}
	r.syncPhase(vol)
	return changedAny, next, nil
}

func zeroVol(m int) [][]int64 {
	vol := make([][]int64, m)
	for j := range vol {
		vol[j] = make([]int64, m)
	}
	return vol
}

// --- native executor -------------------------------------------------

// chargeNative charges node j's clock for ops on the built-in executor.
func (r *runner) chargeNative(j int, ops float64) {
	r.cl.Node(j).Charge(bucketUpper, r.cfg.Spec.nativeTime(ops))
}

// nextNativeResult hands out node j's reusable GenResult for this phase
// (double-buffered; genPhase flips once per phase so the GAS carry stays
// intact while the next round's results are produced).
func (r *runner) nextNativeResult(j int) *gxplug.GenResult {
	res := r.nativeRes[j][r.nativeFlip]
	if res == nil {
		res = gxplug.NewGenResult(r.alg, r.part, j)
		r.nativeRes[j][r.nativeFlip] = res
	} else {
		res.Reset()
	}
	return res
}

// nativeGen runs MSGGen+combine for one node on the engine's built-in
// executor, charging upper-bucket compute time. part.Edges is grouped by
// source and part.RunEnds indexes its runs, so the walk is over source
// runs, in table order: the frontier is tested and the attribute row
// sliced once per run, and an inactive source's run is skipped having
// read only its first edge's source. An algorithm that declares
// Hints.SourceOnly generates once per run, at its first edge that passes
// the cone filter (without a cone, its first edge), so a source with no
// edge into the cone costs nothing; that one message then folds into the
// run's passing destinations in one typed loop — the whole run at once
// without a cone, the cone test inline with one. Any other algorithm
// generates and folds once per passing edge. Edges are still visited in
// table order and every message still merges into its destination's row
// of the result's one slab, so per row the MSGMerge sequence, and per
// buffer the first-touch order, are those of a per-edge loop.
func (r *runner) nativeGen(j int) *gxplug.GenResult {
	part := r.part.Parts[j]
	res := r.nextNativeResult(j)
	hints := r.alg.Hints()
	f := slabFold{res: res, slot: r.part.Slot, op: hints.Merge}
	f.acc, f.recv = res.Slabs()
	if r.mw != 1 {
		f.op = template.MergeCustom // Add dispatches on the op itself
	}
	msg := r.natMsg[j]
	// Incremental replay: only destinations in the cone can receive a
	// result differing from the memo, so only their messages are needed.
	cone := r.inc.coneFilter()
	edges, start := 0, int32(0)
	for _, end := range part.RunEnds {
		run := part.Edges[start:end]
		start = end
		src := run[0].Src
		if !hints.GenAll && !r.active[src] {
			continue
		}
		srcAttr := r.attrs[int(src)*r.aw : (int(src)+1)*r.aw]
		switch {
		case !hints.SourceOnly:
			for i := range run {
				e := &run[i]
				if cone != nil && !cone[e.Dst] {
					continue
				}
				edges++
				if r.alg.MSGGen(r.ctx, src, e.Dst, e.Weight, srcAttr, msg) {
					f.into(run[i:i+1], msg)
				}
			}
		case cone == nil:
			edges += len(run)
			if r.alg.MSGGen(r.ctx, src, run[0].Dst, run[0].Weight, srcAttr, msg) {
				f.into(run, msg)
			}
		default:
			i := 0
			for i < len(run) && !cone[run[i].Dst] {
				i++
			}
			if i == len(run) {
				continue
			}
			run = run[i:]
			if r.alg.MSGGen(r.ctx, src, run[0].Dst, run[0].Weight, srcAttr, msg) {
				edges += f.intoCone(run, msg, cone)
				continue
			}
			for k := range run {
				if cone[run[k].Dst] {
					edges++
				}
			}
		}
	}
	res.Entities = edges
	r.chargeNative(j, genOps(float64(edges), hints))
	return res
}

// slabFold folds messages into a GenResult's slabs at the destination's
// Slot: a width-1 message under a declared Hints.Merge in a typed loop,
// any other through GenResult.Add. Only a first touch reaches the routing
// index, to append the row to its buffer's first-touch list. into folds
// into every destination of an edge slice, intoCone into those in the
// cone, testing it inline.
type slabFold struct {
	res  *gxplug.GenResult
	acc  []float64
	recv []bool
	slot []int32
	op   template.MergeOp
}

// into folds msg into the row of every destination of es, in order.
func (f *slabFold) into(es []graph.Edge, msg []float64) {
	acc, recv, slot := f.acc, f.recv, f.slot
	switch f.op {
	case template.MergeSum:
		v := msg[0]
		for i := range es {
			dst := es[i].Dst
			s := slot[dst]
			if !recv[s] {
				f.res.Touch(dst)
			}
			acc[s] += v
		}
	case template.MergeMin:
		v := msg[0]
		for i := range es {
			dst := es[i].Dst
			s := slot[dst]
			if !recv[s] {
				f.res.Touch(dst)
			}
			if v < acc[s] {
				acc[s] = v
			}
		}
	default:
		for i := range es {
			f.res.Add(es[i].Dst, msg)
		}
	}
}

// intoCone folds msg into the row of every destination of es that is in
// cone, in order, and returns how many it folded.
func (f *slabFold) intoCone(es []graph.Edge, msg []float64, cone []bool) int {
	acc, recv, slot := f.acc, f.recv, f.slot
	n := 0
	switch f.op {
	case template.MergeSum:
		v := msg[0]
		for i := range es {
			dst := es[i].Dst
			if !cone[dst] {
				continue
			}
			n++
			s := slot[dst]
			if !recv[s] {
				f.res.Touch(dst)
			}
			acc[s] += v
		}
	case template.MergeMin:
		v := msg[0]
		for i := range es {
			dst := es[i].Dst
			if !cone[dst] {
				continue
			}
			n++
			s := slot[dst]
			if !recv[s] {
				f.res.Touch(dst)
			}
			if v < acc[s] {
				acc[s] = v
			}
		}
	default:
		for i := range es {
			if dst := es[i].Dst; cone[dst] {
				n++
				f.res.Add(dst, msg)
			}
		}
	}
	return n
}

// nativeMerge folds an inbox into the node's local accumulator.
func (r *runner) nativeMerge(j int, res *gxplug.GenResult, inbox *gxplug.MsgBuf) {
	if inbox.Len() == 0 {
		return
	}
	local := res.Local()
	for _, mi := range inbox.Touched() {
		local.Merge(mi, inbox.Row(mi))
	}
	r.chargeNative(j, mergeOps(float64(inbox.Len()), r.mw))
}

// nativeApply applies merged messages to the node's masters, returning
// the activity flags and the bitwise-written flags (both aliasing
// per-node runner scratch, valid until the node's next apply).
func (r *runner) nativeApply(j int, res *gxplug.GenResult) (changed, wrote []bool) {
	part := r.part.Parts[j]
	local := res.Local()
	applyAll := r.alg.Hints().ApplyAll
	changed = r.natChanged[j]
	wrote = r.natWrote[j]
	before := r.natBefore[j]
	for mi := range changed {
		changed[mi], wrote[mi] = false, false
	}
	replay := r.inc != nil && !r.inc.full
	var memoAttrs []float64
	var memoChanged []bool
	var diff []graph.VertexID
	if replay {
		it := r.ctx.Iteration
		memoAttrs = r.inc.trace.attrs[it]
		memoChanged = r.inc.trace.changed[it]
		diff = r.inc.diffPer[j][:0]
	}
	// diverged reports whether a computed cone vertex left the memoized
	// trajectory — by attribute bits or by activity flag, both of which
	// its out-neighbours can observe next superstep.
	diverged := func(id graph.VertexID, row []float64, ch bool) bool {
		if ch != memoChanged[id] {
			return true
		}
		memo := memoAttrs[int(id)*r.aw : (int(id)+1)*r.aw]
		for k := range row {
			if math.Float64bits(row[k]) != math.Float64bits(memo[k]) {
				return true
			}
		}
		return false
	}
	applied, replayed := 0, 0
	for mi, id := range part.Masters {
		row := r.attrs[int(id)*r.aw : (int(id)+1)*r.aw]
		if replay && !r.inc.cone[id] {
			// Outside the cone the from-scratch result is the memo row:
			// install it, reconstructing the written flag by bit-compare
			// (float != would miss -0 and NaN).
			memo := memoAttrs[int(id)*r.aw : (int(id)+1)*r.aw]
			for k := range row {
				if math.Float64bits(row[k]) != math.Float64bits(memo[k]) {
					wrote[mi] = true
					break
				}
			}
			if wrote[mi] {
				copy(row, memo)
				replayed++
			}
			changed[mi] = memoChanged[id]
			continue
		}
		if !applyAll && !local.Recv(int32(mi)) {
			// Skipped by the from-scratch run too; a cone vertex whose
			// value still differs from the memo stays in the diff so the
			// cone keeps covering its out-neighbours.
			if replay && diverged(id, row, false) {
				diff = append(diff, id)
			}
			continue
		}
		applied++
		copy(before, row)
		changed[mi] = r.alg.MSGApply(r.ctx, id, row,
			local.Row(int32(mi)), local.Recv(int32(mi)))
		for k := range row {
			if row[k] != before[k] {
				wrote[mi] = true
				break
			}
		}
		if replay && diverged(id, row, changed[mi]) {
			diff = append(diff, id)
		}
	}
	if replay {
		r.inc.diffPer[j] = diff
	}
	r.chargeNative(j, applyOps(float64(applied), float64(replayed), r.alg.Hints()))
	return changed, wrote
}
