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

// genPhase runs MSGGen(+combine) on every node, via agents or natively,
// into r.results. Each node has one GenResult, reused every phase: a
// GAS scatter's results are consumed by the next round's mergeApplyPhase
// before the following scatter resets them, and BSP consumes them within
// the superstep.
func (r *runner) genPhase() error {
	return r.eachNode(func(j int) (err error) {
		if r.agents == nil {
			r.results[j] = r.nativeGen(j)
			return nil
		}
		r.results[j], err = r.agents[j].RequestGen(r.activeFn)
		return err
	})
}

// routeRemote folds every sender's buffer for destination o into
// r.inbox[o], and accumulates the pairwise byte volumes into vol.
// Destinations are independent, so the fold fans out like the phases
// around it. Per inbox row the MSGMerge sequence is fixed — senders in
// node order, each contributing the one row it pre-combined in its own
// edge/block order — so floating-point results are machine- and
// schedule-independent. The only error is a panicking MSGMerge.
func (r *runner) routeRemote(vol [][]int64) error {
	err := r.eachNode(func(o int) error {
		for j, res := range r.results {
			if j == o {
				continue
			}
			out := res.To[o]
			for _, row := range out.Touched() {
				r.inbox[o].Merge(row, out.Row(row))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	msgBytes := r.cfg.Spec.wireRowBytes(r.mw)
	for j, res := range r.results {
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

// mergeApplyPhase merges each node's inbox into its GenResult and applies
// on every node in parallel, updating the frontier. It returns whether
// anything changed and the changed vertices that have mirrors (forcing
// attribute synchronization under vertex-cut), ordered by owning node then
// master order — a deterministic order, unlike the map the routing layer
// used to build.
func (r *runner) mergeApplyPhase() (changedAny bool, mirrorUpdates []graph.VertexID, err error) {
	err = r.eachNode(func(j int) error {
		masters := r.part.Parts[j].Masters
		res, inbox := r.results[j], r.inbox[j]
		var changed, wrote []bool
		if r.agents != nil {
			if err := r.agents[j].RequestMerge(res, inbox); err != nil {
				return err
			}
			ar, err := r.agents[j].RequestApply(res)
			if err != nil {
				return err
			}
			changed, wrote = ar.Changed, ar.Wrote
		} else {
			r.nativeMerge(j, res, inbox)
			changed, wrote = r.nativeApply(j, res)
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
// exchange of its messages into the reset inbox.
func (r *runner) scatter(vol [][]int64) error {
	if err := r.genPhase(); err != nil {
		return err
	}
	r.drainSpills()
	r.nextInbox()
	return r.routeRemote(vol)
}

// iterateBSP is one bulk-synchronous superstep: Gen → exchange → Merge →
// Apply → sync.
func (r *runner) iterateBSP() (bool, error) {
	vol := r.resetVol()
	if err := r.scatter(vol); err != nil {
		return false, err
	}
	changedAny, mirrorUpdates, err := r.mergeApplyPhase()
	if err != nil {
		return false, err
	}
	r.updateCone()
	r.drainSpills()
	r.distributeMirrors(mirrorUpdates, vol)
	r.syncPhase(vol)
	return changedAny, nil
}

// iterateGAS is one GAS round in PowerGraph order — Merge (gather) →
// Apply → Gen (scatter). The bootstrap scatter of round 0 flows the
// initial vertex state, as GAS engines do implicitly by reading neighbour
// state during the first gather. A round's scatter leaves its results and
// inbox in the runner's buffers, with r.pending set, for the next round's
// gather. Scatter exchange volumes are charged in the round that produces
// them.
func (r *runner) iterateGAS() (bool, error) {
	vol := r.resetVol()
	if !r.pending {
		if err := r.scatter(vol); err != nil {
			return false, err
		}
	}
	changedAny, mirrorUpdates, err := r.mergeApplyPhase()
	if err != nil {
		return false, err
	}
	// The cone must advance before the end-of-round scatter: its messages
	// are consumed by the next round's apply, which replays the next memo.
	r.updateCone()
	r.drainSpills()
	// Mirrors must see the applied state before the scatter reads them.
	r.distributeMirrors(mirrorUpdates, vol)
	if changedAny {
		if err := r.scatter(vol); err != nil {
			return false, err
		}
	}
	r.pending = changedAny
	r.syncPhase(vol)
	return changedAny, nil
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

// nativeGen runs MSGGen+combine for one node on the engine's built-in
// executor, charging upper-bucket compute time: a replayed superstep
// gathers into its cone (gatherCone), any other pushes along the node's
// edge table (push). Either way each destination row sees the MSGGen
// messages of the node's edges into it in partition order, so per row the
// MSGMerge sequence, and the edges counted, are those of a per-edge loop.
func (r *runner) nativeGen(j int) *gxplug.GenResult {
	res := r.results[j]
	if res == nil {
		res = gxplug.NewGenResult(r.alg, r.part, j)
		r.results[j] = res
	} else {
		res.Reset()
	}
	hints := r.alg.Hints()
	f := slabFold{res: res, slot: r.part.Slot, op: hints.Merge}
	f.acc, f.recv = res.Slabs()
	if r.mw != 1 {
		f.op = template.MergeCustom // Add dispatches on the op itself
	}
	if r.inc.coneFilter() != nil {
		res.Entities = r.gatherCone(j, &f)
	} else {
		res.Entities = r.push(j, &f)
	}
	r.chargeNative(j, genOps(float64(res.Entities), hints))
	return res
}

// push generates along node j's edge table and returns the edges it
// counted. part.Edges is grouped by source and part.RunEnds indexes its
// runs, so the walk is over source runs, in table order: the frontier is
// tested and the attribute row sliced once per run, and an inactive
// source's run is skipped having read only its first edge's source. An
// algorithm that declares Hints.SourceOnly generates once per run and
// folds that one message into the whole run in one typed loop; any other
// generates and folds once per edge. Rows are touched in edge order, so
// per buffer the first-touch order is that of a per-edge loop too.
func (r *runner) push(j int, f *slabFold) int {
	part, hints, msg := r.part.Parts[j], r.alg.Hints(), r.natMsg[j]
	edges, start := 0, int32(0)
	for _, end := range part.RunEnds {
		run := part.Edges[start:end]
		start = end
		src := run[0].Src
		if !hints.GenAll && !r.active[src] {
			continue
		}
		srcAttr := r.attrs[int(src)*r.aw : (int(src)+1)*r.aw]
		if !hints.SourceOnly {
			for i := range run {
				edges++
				if r.alg.MSGGen(r.ctx, src, run[i].Dst, run[i].Weight, srcAttr, msg) {
					f.into(run[i:i+1], msg)
				}
			}
			continue
		}
		edges += len(run)
		if r.alg.MSGGen(r.ctx, src, run[0].Dst, run[0].Weight, srcAttr, msg) {
			f.into(run, msg)
		}
	}
	return edges
}

// gatherCone is node j's gen in a replayed superstep, where only cone
// destinations can receive a result differing from the memo: it pulls,
// for each cone vertex v in ascending order, node j's in-edges of v in
// partition order — one range of the boundary's merge signature — and
// returns the edges it counted (those from active sources). A source
// with no edge into the cone costs one MSGGen at most, and a vertex
// outside the cone nothing. Rows are touched in ascending vertex
// order, not push's edge order; no consumer of a buffer's first-touch
// list depends on its order.
//
// An algorithm that declares Hints.SourceOnly generates once per active
// source of the node's runs, into the node's per-source scratch,
// and folds in a typed loop that keeps v's row in a register; any other
// generates and folds once per in-edge.
func (r *runner) gatherCone(j int, f *slabFold) int {
	inc, hints := r.inc, r.alg.Hints()
	sig, cone := inc.sig, inc.coneList
	off := sig.off[j*sig.n : (j+1)*sig.n+1]
	srcs := sig.src
	edges := 0
	if !hints.SourceOnly {
		msg := r.natMsg[j]
		for _, v := range cone {
			for k := off[v]; k < off[v+1]; k++ {
				u := srcs[k]
				if !hints.GenAll && !r.active[u] {
					continue
				}
				edges++
				if r.alg.MSGGen(r.ctx, u, v, sig.w[k], r.attrs[int(u)*r.aw:(int(u)+1)*r.aw], msg) {
					f.res.Add(v, msg)
				}
			}
		}
		return edges
	}

	mw := r.mw
	if len(r.srcState[j]) < sig.n {
		r.srcMsg[j], r.srcState[j] = make([]float64, sig.n*mw), make([]uint8, sig.n)
	}
	msgs, state := r.srcMsg[j], r.srcState[j]
	part, start := r.part.Parts[j], int32(0)
	// every: each source of the node's runs has a message, so a sum
	// folds every in-edge and need not read state. With no source active
	// there is nothing to count or fold.
	every, active := true, false
	for _, end := range part.RunEnds {
		e := &part.Edges[start]
		start = end
		u := e.Src
		switch {
		case !hints.GenAll && !r.active[u]:
			state[u] = srcSkip
		case r.alg.MSGGen(r.ctx, u, e.Dst, e.Weight, r.attrs[int(u)*r.aw:(int(u)+1)*r.aw], msgs[int(u)*mw:(int(u)+1)*mw]):
			state[u] = srcMsg
			active = true
			continue
		default:
			state[u] = srcNone
			active = true
		}
		every = false
		if f.op == template.MergeMin {
			msgs[u] = math.Inf(1) // folds as nothing: no value is below it
		}
	}
	if !active {
		return 0
	}
	acc, slot := f.acc, f.slot
	switch {
	case f.op == template.MergeSum && every:
		for _, v := range cone {
			in := srcs[off[v]:off[v+1]]
			if len(in) == 0 {
				continue
			}
			s := slot[v]
			a := acc[s]
			for _, u := range in {
				a += msgs[u]
			}
			edges += len(in)
			f.res.Touch(v)
			acc[s] = a
		}
	case f.op == template.MergeMin:
		// Branch-free over state: a source without a message holds +Inf,
		// and state's bits say whether the edge counts and whether
		// anything folded.
		for _, v := range cone {
			s := slot[v]
			a, seen := acc[s], uint8(0)
			for _, u := range srcs[off[v]:off[v+1]] {
				st := state[u]
				seen |= st
				edges += int(st & srcNone)
				if m := msgs[u]; m < a {
					a = m
				}
			}
			if seen&srcMsg == srcMsg {
				f.res.Touch(v)
				acc[s] = a
			}
		}
	default:
		for _, v := range cone {
			for _, u := range srcs[off[v]:off[v+1]] {
				switch state[u] {
				case srcSkip:
					continue
				case srcMsg:
					f.res.Add(v, msgs[int(u)*mw:(int(u)+1)*mw])
				}
				edges++
			}
		}
	}
	return edges
}

// slabFold folds messages into a GenResult's slabs at the destination's
// Slot: a width-1 message under a declared Hints.Merge in a typed loop,
// any other through GenResult.Add. Only a first touch reaches the routing
// index, to append the row to its buffer's first-touch list.
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
