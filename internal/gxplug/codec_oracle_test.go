package gxplug

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/cluster"
	"gxplug/internal/device"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
	"gxplug/internal/le"
)

// The Gen block as a Go value, and the codec and planner that copied it
// field by field: the Triplet-slab plan, the five-cursor-calls-per-triplet
// encoder and the decoder that read every triplet back into a second slab.
// A Gen block is bytes end to end now, and its triplets live in the
// topology segment; these are kept verbatim (apart from names, and the
// planner's slabs living on a holder of their own) as the oracles the wire
// path is held to, through oracleGenBytes, which lays a wire block and its
// window of the topology out as the oracle encoder does. So is the cursor codec of the Apply
// and Merge blocks and of every result area, with the size functions it
// checked against: each block kind has one layout now, and its result area
// no longer ends in a cost word. Nothing outside the tests runs them.

// triplet is an edge together with the row indices of its endpoints in
// the block's vertex rows.
type triplet struct {
	Src, Dst graph.VertexID
	W        float64
	// SrcRow/DstRow index into the paired vertex block's attribute rows.
	SrcRow, DstRow int32
}

// edgeBlock is a batch of triplets shipped to a daemon.
type edgeBlock struct {
	Triplets []triplet
}

// vertexBlock carries the vertices an edge block references, with their
// attributes.
type vertexBlock struct {
	IDs    []graph.VertexID
	Stride int
	Attrs  []float64 // len = len(IDs)*Stride
}

// Row returns the attribute row of block-local vertex i.
func (b *vertexBlock) Row(i int) []float64 {
	return b.Attrs[i*b.Stride : (i+1)*b.Stride]
}

// The signed cursor calls the oracle codec made per row index.
func (c *cursor) i32(v int32)  { c.u32(uint32(v)) }
func (c *cursor) rdI32() int32 { return int32(c.rdU32()) }

// oracleScratch is the oracle decoder's target.
type oracleScratch struct {
	eb edgeBlock
	vb vertexBlock
}

// encodeGenBlockOracle writes an edge block plus its paired vertex block
// into seg and returns the number of payload bytes written (excluding the
// reserved result area). resident marks the topology as already held by
// the daemon from the previous iteration, so only attribute bytes move
// across the device link.
func encodeGenBlockOracle(seg []byte, eb *edgeBlock, vb *vertexBlock, msgW int, resident bool) (int, error) {
	need := genBlockSize(len(eb.Triplets), len(vb.IDs), vb.Stride, msgW)
	if need > len(seg) {
		return 0, fmt.Errorf("gxplug: gen block needs %d bytes, segment has %d", need, len(seg))
	}
	c := &cursor{buf: seg}
	c.u32(blockKindGen)
	c.u32(uint32(len(eb.Triplets)))
	c.u32(uint32(len(vb.IDs)))
	c.u32(uint32(vb.Stride))
	c.u32(uint32(msgW))
	if resident {
		c.u32(1)
	} else {
		c.u32(0)
	}
	for _, t := range eb.Triplets {
		c.u32(uint32(t.Src))
		c.u32(uint32(t.Dst))
		c.i32(t.SrcRow)
		c.i32(t.DstRow)
		c.f64(t.W)
	}
	for _, id := range vb.IDs {
		c.u32(uint32(id))
	}
	for _, a := range vb.Attrs {
		c.f64(a)
	}
	return c.off, nil
}

// decodeGenBlockOracle reads the agent's payload back out of a segment
// into sc. sc grows only after the header's geometry is known to be
// plausible and to fit the segment, so a lying header cannot size an
// allocation.
func decodeGenBlockOracle(seg []byte, sc *oracleScratch) (eb *edgeBlock, vb *vertexBlock, msgW int, resident bool, resultOff int, err error) {
	if len(seg) < 6*4 {
		return nil, nil, 0, false, 0, fmt.Errorf("gxplug: gen block header truncated (%d bytes)", len(seg))
	}
	c := &cursor{buf: seg}
	if kind := c.rdU32(); kind != blockKindGen {
		return nil, nil, 0, false, 0, fmt.Errorf("gxplug: segment kind %#x, want gen block", kind)
	}
	nT := int(c.rdU32())
	nV := int(c.rdU32())
	attrW := int(c.rdU32())
	msgW = int(c.rdU32())
	resident = c.rdU32() != 0
	if !dimsOK(nT, nV, attrW, msgW) {
		return nil, nil, 0, false, 0, fmt.Errorf("gxplug: implausible gen block geometry %d/%d/%d/%d", nT, nV, attrW, msgW)
	}
	if genBlockSize64(int64(nT), int64(nV), int64(attrW), int64(msgW)) > int64(len(seg)) {
		return nil, nil, 0, false, 0, fmt.Errorf("gxplug: truncated gen block")
	}
	eb, vb = &sc.eb, &sc.vb
	for i := range grow(&eb.Triplets, nT) {
		eb.Triplets[i] = triplet{
			Src:    graph.VertexID(c.rdU32()),
			Dst:    graph.VertexID(c.rdU32()),
			SrcRow: c.rdI32(),
			DstRow: c.rdI32(),
			W:      c.rdF64(),
		}
	}
	vb.Stride = attrW
	for i := range grow(&vb.IDs, nV) {
		vb.IDs[i] = graph.VertexID(c.rdU32())
	}
	for i := range grow(&vb.Attrs, nV*attrW) {
		vb.Attrs[i] = c.rdF64()
	}
	return eb, vb, msgW, resident, c.off, nil
}

// encodeGenBlockWire encodes eb and vb through the wire path: eb's
// triplets into topo from triplet first on, in wire form as buildBlocks
// plans them, then the block naming them and the attribute rows fillBlock
// writes. It returns the payload's end.
func encodeGenBlockWire(seg, topo []byte, first int, eb *edgeBlock, vb *vertexBlock, msgW int, resident bool) (int, error) {
	for i, t := range eb.Triplets {
		putTriplet(topo[(first+i)*tripletBytes:], t.Src, t.Dst, t.SrcRow, t.DstRow, t.W)
	}
	l, err := encodeGenBlock(seg, first, len(eb.Triplets), vb.IDs, vb.Stride, msgW, resident)
	if err == nil {
		le.Put(seg[l.attrs:l.acc], vb.Attrs)
	}
	return int(l.acc), err
}

// genSegment encodes eb and vb through the wire path into a segment sized
// by their layout and a topology holding eb's triplets alone.
func genSegment(t testing.TB, eb *edgeBlock, vb *vertexBlock, msgW int) (seg, topo []byte) {
	t.Helper()
	seg = make([]byte, layGen(int64(len(vb.IDs)), int64(vb.Stride), int64(msgW)).end)
	topo = make([]byte, len(eb.Triplets)*tripletBytes)
	if _, err := encodeGenBlockWire(seg, topo, 0, eb, vb, msgW, false); err != nil {
		t.Fatal(err)
	}
	return seg, topo
}

// oracleGenBytes lays the Gen block in seg out as the oracle encoder
// does: its header without the first word, the nT triplets of topo the
// block names, then everything seg holds past the header — ids, attribute
// rows, result area and any bytes after it. seg must hold a whole header
// naming a window inside topo.
func oracleGenBytes(seg, topo []byte) []byte {
	nT, first := int(binary.LittleEndian.Uint32(seg[4:])), int(binary.LittleEndian.Uint32(seg[24:]))
	out := append(slices.Clone(seg[:24]), topo[first*tripletBytes:(first+nT)*tripletBytes]...)
	return append(out, seg[28:]...)
}

// encodeApplyWire encodes an apply batch through the wire path: the
// header, then each section as encodeApply writes it.
func encodeApplyWire(seg []byte, ids []graph.VertexID, attrs []float64, attrW int, msgs []float64, msgW int, recv []bool) (applyLayout, error) {
	l, err := encodeApplyBlock(seg, len(ids), attrW, msgW)
	if err == nil {
		idSec := seg[l.ids:l.attrs]
		for i, id := range ids {
			binary.LittleEndian.PutUint32(idSec[4*i:], uint32(id))
		}
		le.Put(seg[l.attrs:l.msgs], attrs)
		le.Put(seg[l.msgs:l.recv], msgs)
		putBools(seg[l.recv:l.changed], recv)
	}
	return l, err
}

// encodeTriplets writes trips in wire form.
func encodeTriplets(trips []triplet) []byte {
	b := make([]byte, len(trips)*tripletBytes)
	for i, t := range trips {
		putTriplet(b[i*tripletBytes:], t.Src, t.Dst, t.SrcRow, t.DstRow, t.W)
	}
	return b
}

// tripletsOf reads a wire-form triplet section back into values.
func tripletsOf(b []byte) []triplet {
	c := &cursor{buf: b}
	out := make([]triplet, len(b)/tripletBytes)
	for i := range out {
		out[i] = triplet{Src: graph.VertexID(c.rdU32()), Dst: graph.VertexID(c.rdU32()), SrcRow: c.rdI32(), DstRow: c.rdI32(), W: c.rdF64()}
	}
	return out
}

// dimsOK reports whether every decoded count is a plausible block
// dimension.
func dimsOK(dims ...int) bool {
	for _, d := range dims {
		if d < 0 || d > maxBlockDim {
			return false
		}
	}
	return true
}

// genBlockSize64 returns the segment bytes needed for a Gen block with
// result area. Decoders use the int64 form so that hostile header
// counts (bounded by maxBlockDim) cannot overflow even where int is 32
// bits.
func genBlockSize64(nTriplets, nVerts, attrW, msgW int64) int64 {
	header := int64(6 * 4)
	trips := nTriplets * tripletBytes
	ids := nVerts * 4
	attrs := nVerts * attrW * 8
	acc := nVerts * msgW * 8
	recv := nVerts
	cost := int64(8)
	return header + trips + ids + attrs + acc + recv + cost
}

// genBlockSize is the trusted-geometry form used on encode paths.
func genBlockSize(nTriplets, nVerts, attrW, msgW int) int {
	return int(genBlockSize64(int64(nTriplets), int64(nVerts), int64(attrW), int64(msgW)))
}

// applyBlockSize64 returns the segment bytes for an Apply block (int64
// for the same reason as genBlockSize64).
func applyBlockSize64(nVerts, attrW, msgW int64) int64 {
	header := int64(4 * 4)
	ids := nVerts * 4
	attrs := nVerts * attrW * 8
	msgs := nVerts * msgW * 8
	recv := nVerts
	changed := nVerts
	cost := int64(8)
	return header + ids + attrs + msgs + recv + changed + cost
}

// applyBlockSize is the trusted-geometry form used on encode paths.
func applyBlockSize(nVerts, attrW, msgW int) int {
	return int(applyBlockSize64(int64(nVerts), int64(attrW), int64(msgW)))
}

// mergeBlockSize64 returns the segment bytes for a Merge block (int64
// for the same reason as genBlockSize64).
func mergeBlockSize64(rows, msgW int64) int64 {
	return 3*4 + 2*rows*msgW*8 + 8
}

// mergeBlockSize is the trusted-geometry form used on encode paths.
func mergeBlockSize(rows, msgW int) int {
	return int(mergeBlockSize64(int64(rows), int64(msgW)))
}

type cursor struct {
	buf []byte
	off int
}

func (c *cursor) u32(v uint32) {
	binary.LittleEndian.PutUint32(c.buf[c.off:], v)
	c.off += 4
}
func (c *cursor) f64(v float64) {
	binary.LittleEndian.PutUint64(c.buf[c.off:], math.Float64bits(v))
	c.off += 8
}
func (c *cursor) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.buf[c.off:], v)
	c.off += 8
}
func (c *cursor) b(v byte) {
	c.buf[c.off] = v
	c.off++
}

func (c *cursor) rdU32() uint32 {
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}
func (c *cursor) rdF64() float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
	return v
}
func (c *cursor) rdU64() uint64 {
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v
}
func (c *cursor) rdB() byte {
	v := c.buf[c.off]
	c.off++
	return v
}

// writeGenResultOracle stores the daemon's accumulator, receive flags and
// device cost at the reserved offset.
func writeGenResultOracle(seg []byte, resultOff int, acc []float64, recv []bool, costNanos uint64) {
	c := &cursor{buf: seg, off: resultOff}
	for _, v := range acc {
		c.f64(v)
	}
	for _, r := range recv {
		if r {
			c.b(1)
		} else {
			c.b(0)
		}
	}
	c.u64(costNanos)
}

// readGenResultIntoOracle extracts the daemon's results: acc and recv supply
// the geometry the caller encoded (len(acc) = nVerts*msgW, len(recv) =
// nVerts) and receive the results.
func readGenResultIntoOracle(seg []byte, resultOff int, acc []float64, recv []bool) (costNanos uint64) {
	c := &cursor{buf: seg, off: resultOff}
	for i := range acc {
		acc[i] = c.rdF64()
	}
	for i := range recv {
		recv[i] = c.rdB() != 0
	}
	return c.rdU64()
}

// encodeApplyBlockOracle writes an apply batch: vertex rows with their merged
// messages and receive flags.
func encodeApplyBlockOracle(seg []byte, ids []graph.VertexID, attrs []float64, attrW int, msgs []float64, msgW int, recv []bool) (int, error) {
	need := applyBlockSize(len(ids), attrW, msgW)
	if need > len(seg) {
		return 0, fmt.Errorf("gxplug: apply block needs %d bytes, segment has %d", need, len(seg))
	}
	c := &cursor{buf: seg}
	c.u32(blockKindApply)
	c.u32(uint32(len(ids)))
	c.u32(uint32(attrW))
	c.u32(uint32(msgW))
	for _, id := range ids {
		c.u32(uint32(id))
	}
	for _, v := range attrs {
		c.f64(v)
	}
	for _, v := range msgs {
		c.f64(v)
	}
	for _, r := range recv {
		if r {
			c.b(1)
		} else {
			c.b(0)
		}
	}
	return c.off, nil
}

// decodeApplyBlockOracle reads an apply batch on the daemon side into sc, under
// the same grow-after-validation rule as decodeGenBlock.
func decodeApplyBlockOracle(seg []byte, sc *blockScratch) (ids []graph.VertexID, attrs []float64, attrW int, msgs []float64, msgW int, recv []bool, resultOff int, err error) {
	if len(seg) < 4*4 {
		return nil, nil, 0, nil, 0, nil, 0, fmt.Errorf("gxplug: apply block header truncated (%d bytes)", len(seg))
	}
	c := &cursor{buf: seg}
	if kind := c.rdU32(); kind != blockKindApply {
		return nil, nil, 0, nil, 0, nil, 0, fmt.Errorf("gxplug: segment kind %#x, want apply block", kind)
	}
	n := int(c.rdU32())
	attrW = int(c.rdU32())
	msgW = int(c.rdU32())
	if !dimsOK(n, attrW, msgW) {
		return nil, nil, 0, nil, 0, nil, 0, fmt.Errorf("gxplug: implausible apply block geometry %d/%d/%d", n, attrW, msgW)
	}
	if applyBlockSize64(int64(n), int64(attrW), int64(msgW)) > int64(len(seg)) {
		return nil, nil, 0, nil, 0, nil, 0, fmt.Errorf("gxplug: truncated apply block")
	}
	ids = grow(&sc.ids, n)
	for i := range ids {
		ids[i] = graph.VertexID(c.rdU32())
	}
	attrs = grow(&sc.attrs, n*attrW)
	for i := range attrs {
		attrs[i] = c.rdF64()
	}
	msgs = grow(&sc.msgs, n*msgW)
	for i := range msgs {
		msgs[i] = c.rdF64()
	}
	recv = grow(&sc.recv, n)
	for i := range recv {
		recv[i] = c.rdB() != 0
	}
	return ids, attrs, attrW, msgs, msgW, recv, c.off, nil
}

// writeApplyResultOracle stores updated attributes in place plus changed flags
// and cost. attrOff is where the attribute array began in the segment.
func writeApplyResultOracle(seg []byte, attrOff int, attrs []float64, resultOff int, changed []bool, costNanos uint64) {
	c := &cursor{buf: seg, off: attrOff}
	for _, v := range attrs {
		c.f64(v)
	}
	c = &cursor{buf: seg, off: resultOff}
	for _, ch := range changed {
		if ch {
			c.b(1)
		} else {
			c.b(0)
		}
	}
	c.u64(costNanos)
}

// readApplyResultIntoOracle extracts updated attributes and changed flags on
// the agent side into attrs (n*attrW) and changed (n). The layout mirrors
// encodeApplyBlockOracle.
func readApplyResultIntoOracle(seg []byte, n, attrW, msgW int, attrs []float64, changed []bool) (costNanos uint64) {
	attrOff := 4*4 + n*4
	c := &cursor{buf: seg, off: attrOff}
	for i := range attrs {
		attrs[i] = c.rdF64()
	}
	resultOff := applyBlockSize(n, attrW, msgW) - n - 8
	c = &cursor{buf: seg, off: resultOff}
	for i := range changed {
		changed[i] = c.rdB() != 0
	}
	return c.rdU64()
}

// encodeMergeBlockOracle writes two accumulator arrays for a daemon-side merge.
func encodeMergeBlockOracle(seg []byte, accA, accB []float64, msgW int) (int, error) {
	if len(accA) != len(accB) || msgW <= 0 || len(accA)%msgW != 0 {
		return 0, fmt.Errorf("gxplug: merge block geometry %d/%d width %d", len(accA), len(accB), msgW)
	}
	rows := len(accA) / msgW
	if mergeBlockSize(rows, msgW) > len(seg) {
		return 0, fmt.Errorf("gxplug: merge block needs %d bytes, segment has %d", mergeBlockSize(rows, msgW), len(seg))
	}
	c := &cursor{buf: seg}
	c.u32(blockKindMerge)
	c.u32(uint32(rows))
	c.u32(uint32(msgW))
	for _, v := range accA {
		c.f64(v)
	}
	for _, v := range accB {
		c.f64(v)
	}
	return c.off, nil
}

// decodeMergeBlockOracle reads the two accumulators on the daemon side into sc,
// under the same grow-after-validation rule as decodeGenBlock.
func decodeMergeBlockOracle(seg []byte, sc *blockScratch) (accA, accB []float64, msgW, resultOff int, err error) {
	if len(seg) < 3*4 {
		return nil, nil, 0, 0, fmt.Errorf("gxplug: merge block header truncated (%d bytes)", len(seg))
	}
	c := &cursor{buf: seg}
	if kind := c.rdU32(); kind != blockKindMerge {
		return nil, nil, 0, 0, fmt.Errorf("gxplug: segment kind %#x, want merge block", kind)
	}
	rows := int(c.rdU32())
	msgW = int(c.rdU32())
	if !dimsOK(rows, msgW) || msgW == 0 {
		return nil, nil, 0, 0, fmt.Errorf("gxplug: implausible merge block geometry %d/%d", rows, msgW)
	}
	if mergeBlockSize64(int64(rows), int64(msgW)) > int64(len(seg)) {
		return nil, nil, 0, 0, fmt.Errorf("gxplug: truncated merge block")
	}
	accA = grow(&sc.attrs, rows*msgW)
	for i := range accA {
		accA[i] = c.rdF64()
	}
	accB = grow(&sc.msgs, rows*msgW)
	for i := range accB {
		accB[i] = c.rdF64()
	}
	return accA, accB, msgW, c.off, nil
}

// writeMergeResultOracle stores the merged accumulator over accA's slot.
func writeMergeResultOracle(seg []byte, merged []float64, costNanos uint64) {
	c := &cursor{buf: seg, off: 3 * 4}
	for _, v := range merged {
		c.f64(v)
	}
	// Cost goes at the reserved tail.
	tail := &cursor{buf: seg, off: 3*4 + 2*len(merged)*8}
	tail.u64(costNanos)
}

// readMergeResultIntoOracle extracts the merged accumulator: merged supplies
// the geometry (rows*msgW) and receives it.
func readMergeResultIntoOracle(seg []byte, merged []float64) (costNanos uint64) {
	c := &cursor{buf: seg, off: 3 * 4}
	for i := range merged {
		merged[i] = c.rdF64()
	}
	tail := &cursor{buf: seg, off: 3*4 + 2*len(merged)*8}
	return tail.rdU64()
}

// computeApplyOracle is computeApply before the Apply block had a layout,
// verbatim apart from names: the cursor codec, the cost word included.
func (d *daemonState) computeApplyOracle(seg []byte) (time.Duration, error) {
	ids, attrs, attrW, msgs, msgW, recv, resultOff, err := decodeApplyBlockOracle(seg, &d.dec)
	if err != nil {
		return 0, err
	}
	alg, ctx := d.cfg.alg, d.cfg.ctx
	n := len(ids)
	changed := grow(&d.changed, n) // the kernel writes every element
	// Vertices are disjoint: the kernel needs no partials.
	cost, err := d.cfg.dev.Launch(n,
		int64(resultOff), int64(n*attrW*8+n+8),
		alg.Hints().OpsPerVertex,
		func(start, end int) {
			for i := start; i < end; i++ {
				changed[i] = alg.MSGApply(ctx, ids[i],
					attrs[i*attrW:(i+1)*attrW],
					msgs[i*msgW:(i+1)*msgW], recv[i])
			}
		})
	if err != nil {
		return 0, err
	}
	writeApplyResultOracle(seg, 4*4+n*4, attrs, resultOff, changed, uint64(cost))
	return cost, nil
}

// oraclePlan is one block of the Triplet-slab plan: its triplets, the
// vertices they reference, room for those vertices' attributes and each
// vertex's row in the agent's vertex table (-1 where this node holds no
// copy: a remote destination), each a window of the planner's slab of
// that kind.
type oraclePlan struct {
	eb   edgeBlock
	vb   vertexBlock
	rows []int32
}

// oraclePlanner holds the Triplet-slab plan of one agent's tables.
type oraclePlanner struct {
	a          *Agent
	blocks     []oraclePlan
	blockTrips []triplet
	blockIDs   []graph.VertexID
	blockRows  []int32
	blockAttrs []float64
	blockIdx   []int32
	vEnds      []int
}

func newOraclePlanner(a *Agent) *oraclePlanner {
	return &oraclePlanner{a: a, blockIdx: make([]int32, len(a.parts.Owner))}
}

// buildBlocks cuts the chosen rows' edges into paired vertex/edge blocks
// of at most blockEdges triplets, overwriting the previous plan: the
// blocks are consecutive windows of the triplet, id and attribute slabs.
// Attribute content is filled at pipeline download time (fillBlock), not
// here; rows of vertices this node holds no copy of stay zero.
func (o *oraclePlanner) buildBlocks(rows []int, blockEdges int) []oraclePlan {
	a := o.a
	// blockIdx[v] is 1 + the id-slab position of v's entry in the block
	// being cut — anything at or below the block's first position is an
	// older block's entry. Entries of the previous plan are forgotten here.
	idx := o.blockIdx
	for _, id := range o.blockIDs {
		idx[id] = 0
	}
	d := 0
	for _, row := range rows {
		re := a.part.RowEdges[row]
		d += int(re[1] - re[0])
	}
	// slices.Grow rather than grow: a frontier that widens every superstep
	// regrows the slab every superstep, so the growth has to be amortized.
	trips := slices.Grow(o.blockTrips[:0], d)
	ids, vtRows, vEnds := o.blockIDs[:0], o.blockRows[:0], o.vEnds[:0]
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
		re := a.part.RowEdges[row]
		for _, edge := range a.part.Edges[re[0]:re[1]] {
			srcRow := local(edge.Src)
			trips = append(trips, triplet{
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
	o.blockTrips, o.blockIDs, o.blockRows, o.vEnds = trips, ids, vtRows, vEnds

	aw := a.alg.AttrWidth()
	attrs := grow(&o.blockAttrs, len(ids)*aw)
	clear(attrs)
	out := o.blocks[:0]
	vLo = 0
	for i, vHi := range vEnds {
		out = append(out, oraclePlan{
			eb:   edgeBlock{Triplets: trips[i*blockEdges : min((i+1)*blockEdges, len(trips))]},
			vb:   vertexBlock{IDs: ids[vLo:vHi], Stride: aw, Attrs: attrs[vLo*aw : vHi*aw]},
			rows: vtRows[vLo:vHi],
		})
		vLo = vHi
	}
	o.blocks = out
	return out
}

// encode is the encoding half of the Triplet-slab fillBlock: copy the
// table rows into the vertex block, encode. The rows are already fresh.
func (o *oraclePlanner) encode(seg []byte, bp *oraclePlan, reuseTopo bool) (int, error) {
	aw := o.a.alg.AttrWidth()
	for i, r := range bp.rows {
		if r >= 0 {
			copy(bp.vb.Attrs[i*aw:(i+1)*aw], o.a.vt.Row(int(r)))
		}
	}
	return encodeGenBlockOracle(seg, &bp.eb, &bp.vb, o.a.alg.MsgWidth(), reuseTopo)
}

// junk fills b with a nonzero pattern, so that a byte an encoder should
// have written and did not shows.
func junk(b []byte) {
	for i := range b {
		b[i] = byte(0xA5 ^ i)
	}
}

// TestGenBlockBytesMatchOracle holds the wire path to the codec it
// replaced, byte for byte: over the random-plan matrix of
// TestBuildBlocksCutsAndPairs (several plans per agent, each overwriting
// the last), the topology segment buildBlocks writes opens with the
// Triplet-slab plan's triplets in wire form, and every block fillBlock
// writes names its window of them and, laid out as the oracle encoder lays
// it (oracleGenBytes), is up to the payload end the block the Triplet-slab
// plan and encoder write for the same rows — in a fresh plan, and again in
// reuse-topology rounds, where the plan stays and only the vertex table's
// values move.
func TestGenBlockBytesMatchOracle(t *testing.T) {
	blocks := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ER(gen.ERConfig{NumVertices: 2 + rng.Intn(30), NumEdges: int64(rng.Intn(120)), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var alg template.Algorithm = algos.NewPageRank()
		if seed%2 == 1 {
			alg = algos.NewLP() // a wider message: a larger reserved result area
		}
		part := graph.EdgeCutByRange(g, 2)
		ctx := testCtx(g)
		a := NewAgent(cluster.New(2, cluster.DatacenterNet()).Node(1), part, alg, ctx, newFakeUpper(g, alg, ctx), fastOpts())
		if err := a.Connect(); err != nil {
			t.Fatal(err)
		}
		o := newOraclePlanner(a)
		aw := alg.AttrWidth()

		for round := 0; round < 3; round++ {
			var rows []int
			for r := 0; r < a.vt.Len(); r++ {
				if rng.Intn(4) > 0 {
					rows = append(rows, r)
				}
			}
			blockEdges := 1 + rng.Intn(7)
			plan := a.buildBlocks(rows, blockEdges)
			want := o.buildBlocks(rows, blockEdges)
			if len(plan) != len(want) {
				t.Fatalf("seed %d round %d: %d blocks, oracle plans %d", seed, round, len(plan), len(want))
			}
			if slab := encodeTriplets(o.blockTrips); !bytes.Equal(a.topo[:len(slab)], slab) {
				t.Fatalf("seed %d round %d: the topology segment differs from the oracle's triplet slab", seed, round)
			}
			for reuse := 0; reuse < 3; reuse++ {
				// The table moves on between supersteps; the plan does not.
				for i := range a.vt.Attrs() {
					a.vt.Attrs()[i] = float64(rng.Intn(1000)) / 8
				}
				for bi := range plan {
					bp, op := &plan[bi], &want[bi]
					if bp.nT != len(op.eb.Triplets) {
						t.Fatalf("seed %d round %d block %d: %d triplets, oracle %d", seed, round, bi, bp.nT, len(op.eb.Triplets))
					}
					got := make([]byte, a.layout(bp).end+16)
					exp := make([]byte, genBlockSize(bp.nT, len(bp.ids), aw, alg.MsgWidth())+16)
					junk(got)
					junk(exp)
					_, err := a.fillBlock(got, bp, reuse > 0)
					if err != nil {
						t.Fatal(err)
					}
					payload, err := o.encode(exp, op, reuse > 0)
					if err != nil {
						t.Fatal(err)
					}
					// What a block is charged is the oracle's payload, or its
					// ids and attribute rows when the topology is resident.
					l, nT, nV := a.layout(bp), int64(bp.nT), int64(len(bp.ids))
					if first := int(binary.LittleEndian.Uint32(got[24:])); nV != int64(len(op.vb.IDs)) || first != bi*blockEdges ||
						genBytesIn(nT, nV, int64(aw), false) != int64(payload) || genBytesIn(nT, nV, int64(aw), true) != l.acc-l.ids {
						t.Fatalf("seed %d round %d block %d: %d vertices from triplet %d, payload %d; oracle %d vertices, payload %d",
							seed, round, bi, nV, first, l.acc, len(op.vb.IDs), payload)
					}
					if !bytes.Equal(oracleGenBytes(got, a.topo)[:payload], exp[:payload]) {
						t.Fatalf("seed %d round %d reuse %d block %d: segment bytes differ from the oracle encoder's", seed, round, reuse, bi)
					}
					blocks++
				}
			}
		}
		a.Disconnect()
	}
	if blocks == 0 {
		t.Fatal("no blocks compared")
	}
}

// sameValues reports whether two rows hold the same values as the
// write-back compares them: NaN equal to NaN, and -0 equal to +0.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// newTestDaemon is a daemon state of its own over a fresh initialized
// device, for running a kernel on a segment outside the IPC protocol.
func newTestDaemon(alg template.Algorithm, ctx *template.Context) *daemonState {
	dev := device.New(device.Xeon20())
	dev.Init()
	return &daemonState{cfg: daemonConfig{dev: dev, alg: alg, ctx: ctx}}
}

// TestApplyMergeBytesMatchOracle holds the Apply and Merge blocks to the
// cursor codec they replaced, over random geometries, in four steps: the
// agent's encoder writes the oracle encoder's bytes; the daemon's kernel
// leaves the segment as the oracle daemon leaves it, everywhere but the
// deleted cost word, for the same charged cost; nothing is written past
// the block's end; and what the agent reads back out of the segment is
// what the oracle readers read.
func TestApplyMergeBytesMatchOracle(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 2}
	spans := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ER(gen.ERConfig{NumVertices: 2 + rng.Intn(40), NumEdges: int64(rng.Intn(160)), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var alg template.Algorithm = algos.NewPageRank()
		if seed%2 == 1 {
			alg = algos.NewLP() // wider rows
		}
		aw, mw := alg.AttrWidth(), alg.MsgWidth()
		part := graph.EdgeCutByRange(g, 2)
		ctx := testCtx(g)
		opts := fastOpts()
		opts.Caching = seed%3 != 0
		a := NewAgent(cluster.New(2, cluster.DatacenterNet()).Node(1), part, alg, ctx, newFakeUpper(g, alg, ctx), opts)
		nM := len(a.part.Masters)
		if nM == 0 {
			continue
		}

		// Apply: a random ascending span of masters over random rows and
		// messages.
		for i := range a.vt.Attrs() {
			a.vt.Attrs()[i] = float64(rng.Intn(1000)) / 8
		}
		local := NewMsgBuf(alg, nM)
		msg := make([]float64, mw)
		for mi := 0; mi < nM; mi++ {
			if rng.Intn(3) > 0 {
				for k := range msg {
					msg[k] = float64(rng.Intn(50))
				}
				local.Merge(int32(mi), msg)
			}
		}
		var span []int
		for mi := 0; mi < nM; mi++ {
			if rng.Intn(4) > 0 {
				span = append(span, mi)
			}
		}
		n := len(span)
		ids, attrs, msgs, recv := make([]graph.VertexID, n), make([]float64, n*aw), make([]float64, n*mw), make([]bool, n)
		for i, mi := range span {
			ids[i] = a.part.Masters[mi]
			copy(attrs[i*aw:], a.vt.Row(mi))
			copy(msgs[i*mw:], local.Row(int32(mi)))
			recv[i] = local.Recv(int32(mi))
		}
		got, want := make([]byte, layApply(int64(n), int64(aw), int64(mw)).end+16), make([]byte, applyBlockSize(n, aw, mw)+16)
		junk(got)
		junk(want)
		l, err := a.encodeApply(got, span, local)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := encodeApplyBlockOracle(want, ids, attrs, aw, msgs, mw, recv)
		if err != nil {
			t.Fatal(err)
		}
		if l.changed != int64(payload) || !bytes.Equal(got[:payload], want[:payload]) {
			t.Fatalf("seed %d: apply payload (%d bytes) differs from the oracle encoder's (%d)", seed, l.changed, payload)
		}
		costGot, err := newTestDaemon(alg, ctx).computeApply(got)
		if err != nil {
			t.Fatal(err)
		}
		costWant, err := newTestDaemon(alg, ctx).computeApplyOracle(want)
		if err != nil {
			t.Fatal(err)
		}
		checkResultArea(t, fmt.Sprintf("seed %d: apply", seed), got, want, l.end, costGot, costWant)
		wantAttrs, wantChanged := make([]float64, n*aw), make([]bool, n)
		readApplyResultIntoOracle(want, n, aw, mw, wantAttrs, wantChanged)
		oldRows := slices.Clone(a.vt.Attrs())
		out := &ApplyResult{Changed: make([]bool, nM), Wrote: make([]bool, nM)}
		a.writeBack(got, l, span, out)
		for i, mi := range span {
			row := wantAttrs[i*aw : (i+1)*aw]
			wrote := !sameValues(row, oldRows[mi*aw:(mi+1)*aw])
			if out.Changed[mi] != wantChanged[i] || out.Wrote[mi] != wrote || !sameValues(a.vt.Row(mi), row) {
				t.Fatalf("seed %d: master %d reads back changed %v wrote %v row %v; oracle %v %v %v",
					seed, mi, out.Changed[mi], out.Wrote[mi], a.vt.Row(mi), wantChanged[i], wrote, row)
			}
		}

		// Merge: two accumulators over every master, specials included.
		accA, accB := make([]float64, nM*mw), make([]float64, nM*mw)
		for i := range accA {
			accA[i], accB[i] = special[rng.Intn(len(special))], rng.NormFloat64()
		}
		ml := layMerge(int64(nM), int64(mw))
		got, want = make([]byte, ml.end+16), make([]byte, mergeBlockSize(nM, mw)+16)
		junk(got)
		junk(want)
		if l, err := encodeMergeBlock(got, accA, accB, mw); err != nil || l != ml {
			t.Fatalf("seed %d: merge layout %+v, want %+v (err %v)", seed, l, ml, err)
		}
		payload, err = encodeMergeBlockOracle(want, accA, accB, mw)
		if err != nil {
			t.Fatal(err)
		}
		if ml.end != int64(payload) || !bytes.Equal(got[:payload], want[:payload]) {
			t.Fatalf("seed %d: merge payload differs from the oracle encoder's", seed)
		}
		costGot, err = newTestDaemon(alg, ctx).computeMerge(got)
		if err != nil {
			t.Fatal(err)
		}
		costWant, err = newTestDaemon(alg, ctx).computeMergeOracle(want)
		if err != nil {
			t.Fatal(err)
		}
		checkResultArea(t, fmt.Sprintf("seed %d: merge", seed), got, want, ml.end, costGot, costWant)
		merged, wantMerged := make([]float64, nM*mw), make([]float64, nM*mw)
		le.Get(merged, got[ml.a:ml.b]) // as RequestMerge reads it
		readMergeResultIntoOracle(want, wantMerged)
		if !bitsEq(merged, wantMerged) {
			t.Fatalf("seed %d: merged rows read back differ from the oracle reader's", seed)
		}
		spans++
	}
	if spans == 0 {
		t.Fatal("no blocks compared")
	}
}

// checkResultArea compares a segment the daemon computed with the one the
// oracle daemon computed from the same block: the same bytes up to the
// block's end, then the oracle's cost word, which must carry the cost the
// daemon charged; past the end, got must hold the junk it was filled with.
func checkResultArea(t *testing.T, name string, got, want []byte, end int64, costGot, costWant time.Duration) {
	t.Helper()
	if costGot != costWant {
		t.Fatalf("%s: cost %v, oracle %v", name, costGot, costWant)
	}
	if !bytes.Equal(got[:end], want[:end]) {
		t.Fatalf("%s: computed segment differs from the oracle's", name)
	}
	if c := binary.LittleEndian.Uint64(want[end:]); c != uint64(costWant) {
		t.Fatalf("%s: oracle cost word %d, cost %d", name, c, costWant)
	}
	tail := make([]byte, len(got))
	junk(tail)
	if !bytes.Equal(got[end:], tail[end:]) {
		t.Fatalf("%s: written past the block's end", name)
	}
}
