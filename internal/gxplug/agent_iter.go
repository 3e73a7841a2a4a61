package gxplug

import (
	"fmt"
	"slices"
	"time"

	"gxplug/internal/graph"
	"gxplug/internal/gxplug/pipeline"
	"gxplug/internal/gxplug/synccache"
	"gxplug/internal/simtime"
)

// This file drives the per-iteration operation interfaces of §IV-A2 —
// requestGen, requestMerge, requestApply — including the pipeline-shuffle
// rotation protocol against each daemon (Algorithms 1 and 2).

// blockPlan is one block before encoding: its triplets, the vertices they
// reference, room for those vertices' attributes and each vertex's row in
// the agent's vertex table (-1 where this node holds no copy: a remote
// destination), each a window of the agent's slab of that kind
// (buildBlocks).
type blockPlan struct {
	eb   graph.EdgeBlock
	vb   graph.VertexBlock
	rows []int32
}

// RequestGen runs MSGGen (+ combining MSGMerge) over this node's active
// edges on the daemons, streaming blocks through the rotation pipeline.
// active selects source vertices; ignored when the algorithm declares
// GenAll.
func (a *Agent) RequestGen(active func(graph.VertexID) bool) (*GenResult, error) {
	if !a.connected {
		return nil, ErrNotConnected
	}
	if a.oomPending {
		return nil, a.fireOOM()
	}
	a.stats.Iterations++
	if !a.opts.Caching {
		// The naive integration trusts nothing across iterations: every
		// vertex is re-downloaded from the upper system — exactly the
		// traffic the synchronization cache exists to kill (§III-B2a).
		a.store.Clear()
	}
	res := a.nextResult()

	genAll := a.alg.Hints().GenAll
	// Rows participating this iteration and the edge count d.
	rows := a.rowsBuf[:0]
	d := 0
	for r := 0; r < a.vt.Len(); r++ {
		s, e := a.mt.EdgeRange(r)
		if s == e {
			continue
		}
		if !genAll && active != nil && !active(a.vt.ID(r)) {
			continue
		}
		rows = append(rows, r)
		d += e - s
	}
	a.rowsBuf = rows
	res.Entities = d
	a.stats.Entities += int64(d)
	if d == 0 {
		//gxlint:uncharged an iteration with no active edges ships no blocks and costs nothing
		return res, nil
	}

	blockEdges := a.chooseBlockSize(d)

	// Topology residency: daemons hold the edge blocks across iterations
	// (§II-B's blocks live in shared memory; only vertex attributes
	// change value). When this iteration's participating rows and block
	// size match the previous iteration's, the topology bytes are already
	// device-resident, only attribute traffic is charged, and the cached
	// block plans are reused as-is — attribute content is refreshed at
	// download time (fillBlock), never at plan time.
	reuseTopo := a.sameRowSet(rows, blockEdges)
	if !reuseTopo {
		a.blocks = a.buildBlocks(rows, blockEdges)
	}
	blocks := a.blocks
	a.stats.Blocks += int64(len(blocks))
	a.stats.LastBlockSize = blockEdges
	a.stats.LastBlocks = len(blocks)

	// Split blocks across daemons proportionally to device capacity; the
	// daemons run in parallel, so the node pays the slowest share.
	var worst time.Duration
	for di, sp := range a.splitByRate(len(blocks)) {
		if sp.lo == sp.hi {
			continue
		}
		makespan, err := a.runPipeline(di, blocks[sp.lo:sp.hi], res, reuseTopo)
		if err != nil {
			return nil, err
		}
		if makespan > worst {
			worst = makespan
		}
	}
	a.stats.PipelineTime += worst
	a.charge(worst)
	return res, nil
}

// chooseBlockSize picks the per-block edge count: Lemma 1 when enabled,
// otherwise d / FixedBlockCount.
func (a *Agent) chooseBlockSize(d int) int {
	if !a.opts.OptimalBlockSize {
		b := d / a.opts.FixedBlockCount
		if b < 1 {
			b = 1
		}
		return b
	}
	co := a.coefficients()
	b := int(co.OptimalBlockSize(float64(d)))
	if b < 1 {
		b = 1
	}
	if b > d {
		b = d
	}
	return b
}

// coefficients derives the Equation 2 cost coefficients from the live
// system: boundary costs from the upper system, compute rate from the
// fastest device.
func (a *Agent) coefficients() pipeline.Coefficients {
	aw, mw := a.alg.AttrWidth(), a.alg.MsgWidth()
	// Approximate bytes per entity: triplet + its share of the vertex
	// block (about one vertex per two triplets). Boundary coefficients
	// use the *marginal* per-byte cost — the fixed per-batch cost belongs
	// to T_call, not to k1/k3, or small blocks look absurdly cheap.
	perByte := func(n int64) float64 {
		return (a.upper.BoundaryCost(n) - a.upper.BoundaryCost(0)).Seconds()
	}
	// Steady-state traffic with resident topology: roughly one attribute
	// row per two triplets.
	bpe := int64((4 + 8*aw) / 2)
	if bpe < 4 {
		bpe = 4
	}
	k1 := perByte(bpe) + float64(bpe)/memcpyRate

	best := a.devices[0]
	for _, dv := range a.devices[1:] {
		if dv.EffectiveRate(1<<20) > best.EffectiveRate(1<<20) {
			best = dv
		}
	}
	k2 := a.alg.Hints().OpsPerEdge / best.EffectiveRate(1<<20)

	outB := int64(8*mw + 1)
	k3 := float64(outB) / memcpyRate
	if !a.opts.Caching {
		// Without the cache every message round-trips the boundary.
		k3 += 2 * perByte(outB)
	} else {
		k3 += perByte(outB) * 0.2 // remote share estimate
	}
	tcall := best.Spec().LaunchLatency + 6*queueMsgOverhead
	if a.opts.RawCall {
		tcall += best.Spec().InitCost
	}
	return pipeline.Coefficients{K1: k1, K2: k2, K3: k3, A: tcall.Seconds()}
}

// buildBlocks cuts the chosen rows' edges into paired vertex/edge blocks
// of at most blockEdges triplets, overwriting the previous plan: the
// blocks are consecutive windows of the triplet, id and attribute slabs.
// Attribute content is filled at pipeline download time (fillBlock), not
// here; rows of vertices this node holds no copy of stay zero.
func (a *Agent) buildBlocks(rows []int, blockEdges int) []blockPlan {
	// blockIdx[v] is 1 + the id-slab position of v's entry in the block
	// being cut — anything at or below the block's first position is an
	// older block's entry. Entries of the previous plan are forgotten here.
	idx := a.blockIdx
	for _, id := range a.blockIDs {
		idx[id] = 0
	}
	d := 0
	for _, row := range rows {
		s, e := a.mt.EdgeRange(row)
		d += e - s
	}
	// slices.Grow rather than grow: a frontier that widens every superstep
	// regrows the slab every superstep, so the growth has to be amortized.
	trips := slices.Grow(a.blockTrips[:0], d)
	ids, vtRows, vEnds := a.blockIDs[:0], a.blockRows[:0], a.vEnds[:0]
	vLo := 0
	local := func(id graph.VertexID) int32 {
		if p := int(idx[id]); p > vLo {
			return int32(p - 1 - vLo)
		}
		ids = append(ids, id)
		idx[id] = int32(len(ids))
		vtRow := int32(-1)
		if r, ok := a.vt.Lookup(id); ok {
			vtRow = int32(r)
		}
		vtRows = append(vtRows, vtRow)
		return int32(len(ids) - 1 - vLo)
	}
	for _, row := range rows {
		s, e := a.mt.EdgeRange(row)
		for i := s; i < e; i++ {
			edge := a.et.At(i)
			srcRow := local(edge.Src)
			trips = append(trips, graph.Triplet{
				Src: edge.Src, Dst: edge.Dst, W: edge.Weight,
				SrcRow: srcRow, DstRow: local(edge.Dst),
			})
			if len(trips)%blockEdges == 0 {
				vEnds = append(vEnds, len(ids))
				vLo = len(ids)
			}
		}
	}
	if len(ids) > vLo {
		vEnds = append(vEnds, len(ids))
	}
	a.blockTrips, a.blockIDs, a.blockRows, a.vEnds = trips, ids, vtRows, vEnds

	aw := a.alg.AttrWidth()
	attrs := grow(&a.blockAttrs, len(ids)*aw)
	clear(attrs)
	out := a.blocks[:0]
	vLo = 0
	for i, vHi := range vEnds {
		out = append(out, blockPlan{
			eb:   graph.EdgeBlock{Triplets: trips[i*blockEdges : min((i+1)*blockEdges, len(trips))]},
			vb:   graph.VertexBlock{IDs: ids[vLo:vHi], Stride: aw, Attrs: attrs[vLo*aw : vHi*aw]},
			rows: vtRows[vLo:vHi],
		})
		vLo = vHi
	}
	return out
}

// span is the half-open index range [lo, hi).
type span struct{ lo, hi int }

// splitByRate cuts n contiguous items into one span per daemon,
// proportionally to device effective rate (within-node workload
// balancing across heterogeneous accelerators — the Fig 9d mix & match).
// The result is valid until the next call.
func (a *Agent) splitByRate(n int) []span {
	spans := grow(&a.spans, len(a.daemons))
	if len(spans) == 1 {
		spans[0] = span{0, n}
		return spans
	}
	var total float64
	for _, dv := range a.devices {
		total += dv.EffectiveRate(1 << 20)
	}
	start, cum := 0, 0.0
	for i := range spans {
		cum += a.devices[i].EffectiveRate(1 << 20)
		end := int(cum / total * float64(n))
		if i == len(spans)-1 {
			end = n
		}
		if end < start {
			end = start
		}
		spans[i] = span{start, end}
		start = end
	}
	return spans
}

// sameRowSet reports whether the participating rows and block size match
// the previous iteration's (and records them for the next call).
func (a *Agent) sameRowSet(rows []int, blockEdges int) bool {
	same := a.prevBlockEdges == blockEdges && len(rows) == len(a.prevRows)
	if same {
		for i, r := range rows {
			if a.prevRows[i] != r {
				same = false
				break
			}
		}
	}
	if !same {
		a.prevRows = append(a.prevRows[:0], rows...)
		a.prevBlockEdges = blockEdges
	}
	return same
}

// runPipeline streams one daemon's blocks through the three-chunk
// rotation protocol, recording per-block stage costs and returning the
// virtual makespan (pipelined or sequential five-step depending on
// options). Results are merged into res as each block is drained from the
// u-segment, in block order — deterministic regardless of scheduling.
func (a *Agent) runPipeline(di int, blocks []blockPlan, res *GenResult, reuseTopo bool) (time.Duration, error) {
	p := a.daemons[di]
	k := len(blocks)
	// StageCosts is itself a slice — download, compute, upload — cut from
	// one slab for all k blocks.
	slab := grow(&a.stageSlab, 3*k)
	clear(slab)
	costs := grow(&a.stageCosts, k)
	for i := range costs {
		costs[i] = slab[3*i : 3*i+3 : 3*i+3]
	}
	geo := grow(&a.geo, k) // (numVerts, resultOff) per block for draining

	for step := 0; step <= k+1; step++ {
		// Thread.Download: fill the n-chunk with the next block.
		nSeg := p.mem[physSeg(roleN, p.rot)]
		if step < k {
			tn, vOff, err := a.fillBlock(nSeg, &blocks[step], reuseTopo)
			if err != nil {
				return 0, err
			}
			costs[step][0] = tn
			geo[step] = vOff
		} else {
			// No more blocks: zero the kind so the daemon answers
			// ComputeAllFinished after rotation.
			clearKind(nSeg)
		}
		// Thread.Upload: drain the u-chunk (two rotations behind).
		if step >= 2 {
			uSeg := p.mem[physSeg(roleU, p.rot)]
			tu := a.drainBlock(uSeg, &blocks[step-2], geo[step-2], res)
			costs[step-2][2] += tu
		}
		// Exchange finished: rotate n→c→u→n on both sides.
		typ, _, err := a.requestDaemon(p, msgExchangeFinished, nil)
		if err != nil {
			return 0, err
		}
		if typ != msgRotateFinished {
			return 0, fmt.Errorf("gxplug: daemon %d: expected RotateFinished, got %d", di, typ)
		}
		p.rot = (p.rot + 2) % 3
		// Compute the fresh c-chunk.
		typ, payload, err := a.requestDaemon(p, msgCompute, nil)
		if err != nil {
			return 0, err
		}
		switch typ {
		case msgComputeFinished:
			if step >= k {
				return 0, fmt.Errorf("gxplug: daemon %d computed an unexpected block", di)
			}
			dc := decodeCost(payload)
			a.stats.DeviceTime += dc
			costs[step][1] = dc + 6*queueMsgOverhead
		case msgComputeAllFinished:
			if step < k {
				return 0, fmt.Errorf("gxplug: daemon %d drained early at block %d/%d", di, step, k)
			}
		default:
			return 0, fmt.Errorf("gxplug: daemon %d: unexpected reply %d", di, typ)
		}
	}

	if a.opts.Pipeline {
		return simtime.PipelineMakespan(costs), nil
	}
	// WithoutPipeline: the original five-step flow — strictly sequential,
	// plus an agent→daemon and daemon→agent copy per block that shared
	// memory otherwise eliminates.
	total := simtime.SequentialMakespan(costs)
	for i := range blocks {
		blockBytes := int64(len(blocks[i].eb.Triplets))*tripletBytes +
			int64(len(blocks[i].vb.IDs))*int64(4+8*a.alg.AttrWidth())
		total += 2 * simtime.TimeFor(float64(blockBytes), memcpyRate)
	}
	return total, nil
}

// fillBlock materializes one block into a segment: ensures fresh source
// attributes (cache-aware), copies them into the vertex block, encodes.
// Returns the download-stage cost and the block geometry for draining.
// With reuseTopo the triplet encoding still happens for real (segments
// rotate), but only the attribute bytes are charged: the daemon already
// holds this topology from the previous iteration.
func (a *Agent) fillBlock(seg []byte, bp *blockPlan, reuseTopo bool) (time.Duration, [2]int, error) {
	var cost time.Duration
	// Rows to refresh: every vertex the block references that exists in
	// our table (sources always do; destinations may be remote).
	rows := a.fillRows[:0]
	for _, r := range bp.rows {
		if r >= 0 {
			rows = append(rows, int(r))
		}
	}
	a.fillRows = rows
	cost += a.ensureRows(rows)
	aw := a.alg.AttrWidth()
	for i, r := range bp.rows {
		if r >= 0 {
			copy(bp.vb.Attrs[i*aw:(i+1)*aw], a.vt.Row(int(r)))
		}
	}
	payload, err := encodeGenBlock(seg, &bp.eb, &bp.vb, a.alg.MsgWidth(), reuseTopo)
	if err != nil {
		return 0, [2]int{}, err
	}
	moved := payload
	if reuseTopo {
		moved = len(bp.vb.IDs) * (4 + 8*aw)
	}
	cost += simtime.TimeFor(float64(moved), memcpyRate)
	return cost, [2]int{len(bp.vb.IDs), payload}, nil
}

// drainBlock reads one computed block's results out of the u-chunk and
// merges them into the node-level result, returning the upload-stage cost.
func (a *Agent) drainBlock(seg []byte, bp *blockPlan, geo [2]int, res *GenResult) time.Duration {
	nV, resultOff := geo[0], geo[1]
	mw := a.alg.MsgWidth()
	acc := grow(&a.drainAcc, nV*mw)
	recv := grow(&a.drainRcv, nV)
	readGenResultInto(seg, resultOff, acc, recv)
	clearKind(seg)

	var localMsgs, remoteMsgs int
	for r := 0; r < nV; r++ {
		if !recv[r] {
			continue
		}
		id := bp.vb.IDs[r]
		res.Add(id, acc[r*mw:(r+1)*mw])
		if int(a.parts.Owner[id]) == a.node.ID {
			localMsgs++
		} else {
			remoteMsgs++
		}
	}
	resultBytes := int64(nV*mw*8 + nV)
	cost := simtime.TimeFor(float64(resultBytes), memcpyRate)
	msgBytes := func(n int) int64 { return int64(n) * RowBytes(mw) }
	// Remote-bound messages always cross into the upper system for
	// routing. Local messages round-trip only when caching is off (the
	// naive integration pushes everything through the upper system).
	if remoteMsgs > 0 {
		c := a.upper.PushMessages(remoteMsgs, msgBytes(remoteMsgs))
		a.stats.BoundaryTime += c
		cost += c
	}
	if !a.opts.Caching && localMsgs > 0 {
		c := a.upper.PushMessages(localMsgs, msgBytes(localMsgs))
		c += a.upper.FetchMessages(localMsgs, msgBytes(localMsgs))
		a.stats.BoundaryTime += c
		cost += c
	} else {
		a.stats.LazySkipped += int64(localMsgs)
	}
	return cost
}

func clearKind(seg []byte) {
	seg[0], seg[1], seg[2], seg[3] = 0, 0, 0, 0
}

// RequestMerge folds messages arriving from other nodes into the local
// accumulator on a daemon (MSGMerge as a device kernel). incoming is the
// buffer routed to this node (rows over part.Masters, identity where
// untouched).
func (a *Agent) RequestMerge(res *GenResult, incoming *MsgBuf) error {
	if !a.connected {
		return ErrNotConnected
	}
	if incoming == nil || incoming.Len() == 0 {
		//gxlint:uncharged an empty buffer fetches and merges nothing
		return nil
	}
	if incoming.Rows() != len(a.part.Masters) {
		return fmt.Errorf("gxplug: incoming buffer over %d rows for %d masters",
			incoming.Rows(), len(a.part.Masters))
	}
	mw := a.alg.MsgWidth()
	count := incoming.Len()
	// Fetch the routed messages across the boundary.
	fc := a.upper.FetchMessages(count, int64(count)*RowBytes(mw))
	a.stats.BoundaryTime += fc

	local := res.Local()
	for _, mi := range incoming.Touched() {
		local.Touch(mi)
	}

	p := a.daemons[0] // merge is cheap; one daemon suffices
	seg := p.mem[physSeg(roleC, p.rot)]
	if _, err := encodeMergeBlock(seg, local.Acc(), incoming.Acc(), mw); err != nil {
		return err
	}
	typ, payload, err := a.requestDaemon(p, msgMerge, nil)
	if err != nil {
		return err
	}
	if typ != msgDone {
		return fmt.Errorf("gxplug: merge: unexpected reply %d", typ)
	}
	readMergeResultInto(seg, local.Acc())
	clearKind(seg)

	dc := decodeCost(payload)
	a.stats.DeviceTime += dc
	a.charge(fc + dc + 2*queueMsgOverhead)
	return nil
}

// ApplyResult is the outcome of RequestApply.
type ApplyResult struct {
	// Changed is dense over masters: true where MSGApply reported a
	// change (the vertex is active next iteration).
	Changed []bool
	// Wrote is dense over masters: true where the attribute row moved at
	// all, including sub-threshold drift that does not reactivate the
	// vertex. Replicas on other nodes must see these rows.
	Wrote []bool
	// LocalOnly reports that every changed master is internal to this
	// node (all out-neighbours local) — the agent-side condition of
	// synchronization skipping (§III-B3).
	LocalOnly bool
}

// RequestApply runs MSGApply for this node's masters on the daemons,
// updates the vertex table, and handles the upload policy (immediate
// without caching; dirty-marking with).
func (a *Agent) RequestApply(res *GenResult) (*ApplyResult, error) {
	if !a.connected {
		return nil, ErrNotConnected
	}
	applyAll := a.alg.Hints().ApplyAll
	aw, mw := a.alg.AttrWidth(), a.alg.MsgWidth()
	sc := &a.apply
	local := res.Local()

	// Select target masters.
	sel := sc.sel[:0] // master indices
	for i := range a.part.Masters {
		if applyAll || local.Recv(int32(i)) {
			sel = append(sel, i)
		}
	}
	sc.sel = sel
	nM := len(a.part.Masters)
	changed := grow(&sc.changed, nM)
	wrote := grow(&sc.wrote, nM)
	for i := 0; i < nM; i++ {
		changed[i], wrote[i] = false, false
	}
	// The result and its Changed and Wrote alias agent-owned scratch: they
	// are valid until the next RequestApply on this agent.
	out := &sc.result
	*out = ApplyResult{Changed: changed, Wrote: wrote, LocalOnly: true}
	if len(sel) == 0 {
		//gxlint:uncharged no masters selected: nothing is encoded, shipped, or applied
		return out, nil
	}

	ids := grow(&sc.ids, len(sel))
	rows := grow(&sc.rows, len(sel))
	attrs := grow(&sc.attrs, len(sel)*aw)
	msgs := grow(&sc.msgs, len(sel)*mw)
	recv := grow(&sc.recv, len(sel))
	for i, mi := range sel {
		ids[i] = a.part.Masters[mi]
		rows[i] = mi
		recv[i] = local.Recv(int32(mi))
		copy(msgs[i*mw:(i+1)*mw], local.Row(int32(mi)))
	}
	cost := a.ensureRows(rows)
	for i, r := range rows {
		copy(attrs[i*aw:(i+1)*aw], a.vt.Row(r))
	}

	// Split contiguous ranges over daemons by capacity; daemons run in
	// parallel, pay the slowest.
	var worst time.Duration
	for di, sp := range a.splitByRate(len(sel)) {
		if sp.lo == sp.hi {
			continue
		}
		n := sp.hi - sp.lo
		p := a.daemons[di]
		seg := p.mem[physSeg(roleC, p.rot)]
		if _, err := encodeApplyBlock(seg, ids[sp.lo:sp.hi],
			attrs[sp.lo*aw:sp.hi*aw], aw, msgs[sp.lo*mw:sp.hi*mw], mw,
			recv[sp.lo:sp.hi]); err != nil {
			return nil, err
		}
		typ, payload, err := a.requestDaemon(p, msgApply, nil)
		if err != nil {
			return nil, err
		}
		if typ != msgDone {
			return nil, fmt.Errorf("gxplug: apply: unexpected reply %d", typ)
		}
		spanChanged := grow(&sc.spanChanged, n)
		readApplyResultInto(seg, n, aw, mw, attrs[sp.lo*aw:sp.hi*aw], spanChanged)
		clearKind(seg)
		dc := decodeCost(payload)
		a.stats.DeviceTime += dc
		if dc+2*queueMsgOverhead > worst {
			worst = dc + 2*queueMsgOverhead
		}
		for i := sp.lo; i < sp.hi; i++ {
			if spanChanged[i-sp.lo] {
				out.Changed[sel[i]] = true
			}
		}
	}
	cost += worst

	// Write results back into the vertex table; upload per policy. A row
	// counts as written if any bit moved — MSGApply's boolean only drives
	// the activity frontier (e.g. PageRank keeps sub-tolerance rank drift
	// without reactivating the vertex).
	pushIDs := a.pushIDs[:0]
	pushRows := a.pushRows[:0]
	for i, mi := range sel {
		row := attrs[i*aw : (i+1)*aw]
		old := a.vt.Row(rows[i])
		wrote := false
		for k := range row {
			if row[k] != old[k] {
				wrote = true
				break
			}
		}
		if !wrote {
			continue
		}
		out.Wrote[mi] = true
		copy(old, row)
		if out.Changed[mi] && !a.part.Internal[mi] {
			out.LocalOnly = false
		}
		if a.opts.Caching {
			if a.store.Update(rows[i]) {
				// The row stayed resident: its upload really was deferred.
				a.stats.LazySkipped++
			} else {
				// Write-back miss: re-admit the row, then mark it dirty.
				// Not counted as lazily skipped — the insertion can evict
				// (and spill) another dirty row, i.e. this write-back paid
				// cache traffic instead of deferring an upload.
				a.admit(rows[i])
				a.store.Update(rows[i])
			}
		} else {
			pushIDs = append(pushIDs, ids[i])
			pushRows = append(pushRows, row...)
		}
	}
	a.pushIDs, a.pushRows = pushIDs, pushRows
	if len(pushIDs) > 0 {
		cost += a.pushAttrs(pushIDs, pushRows)
	}
	cost += simtime.TimeFor(float64(len(sel)*(aw+mw)*8), memcpyRate)
	a.charge(cost)
	return out, nil
}

// UploadQueried implements the agent side of lazy uploading (§III-B2b):
// push only the dirty vertices that appear in the global query queue, in
// ascending vertex id order — dirty rows are masters, and the vertex table
// lists the masters first, ascending. Returns the number of rows uploaded.
//
// The reads here are bookkeeping, not computation: they neither count as
// hits in the Fig 11a statistics nor move a row in the LRU order.
func (a *Agent) UploadQueried(q *synccache.QueryQueue) int {
	ids, rows := a.pushIDs[:0], a.pushRows[:0]
	for r := range a.store.Dirty() {
		if id := a.vt.ID(r); q.Has(id) {
			ids = append(ids, id)
			rows = append(rows, a.vt.Row(r)...)
			a.store.MarkClean(r)
		}
	}
	a.pushIDs, a.pushRows = ids, rows
	if len(ids) == 0 {
		//gxlint:uncharged nothing this node holds is both dirty and queried (without caching nothing is ever dirty: every row was pushed, and charged, eagerly at apply time)
		return 0
	}
	a.charge(a.pushAttrs(ids, rows))
	return len(ids)
}

// Flush pushes every remaining dirty vertex — pending spills first, then
// the dirty resident rows in ascending vertex id order — to the upper
// system (end of run, or before a full synchronization). Returns the
// cost, which the caller charges; without caching there is never
// anything to push.
func (a *Agent) Flush() time.Duration {
	var cost time.Duration
	if len(a.spillIDs) > 0 {
		cost += a.pushAttrs(a.spillIDs, a.spillRows)
		a.clearSpill()
	}
	ids, rows := a.pushIDs[:0], a.pushRows[:0]
	for r := range a.store.Dirty() {
		ids = append(ids, a.vt.ID(r))
		rows = append(rows, a.vt.Row(r)...)
		a.store.MarkClean(r)
	}
	a.pushIDs, a.pushRows = ids, rows
	if len(ids) > 0 {
		cost += a.pushAttrs(ids, rows)
	}
	return cost
}
