// Package gxplug implements the GX-Plug middleware core: the daemon-agent
// framework of §II, with daemons as accelerator-owning goroutine
// "processes" reachable only through the System V IPC layer, agents
// embedded in upper-system nodes, shared-memory block exchange, the
// pipeline-shuffle rotation protocol of §III-A, synchronization caching
// and skipping of §III-B, and the workload-balancing hooks of §III-C.
package gxplug

import (
	"encoding/binary"
	"fmt"
	"math"

	"gxplug/internal/graph"
)

// The codec serializes vertex/edge blocks into shared-memory segments —
// the "data packager" of §IV-B1: bit-level layout, no reflection, space
// reserved for the daemon's results so no second buffer is needed.

const (
	blockKindGen   = 0xB10C0001
	blockKindApply = 0xB10C0002
	blockKindMerge = 0xB10C0003
)

const tripletBytes = 4 + 4 + 4 + 4 + 8 // src, dst, srcRow, dstRow, w

// maxBlockDim bounds every count decoded from a segment header. Real
// blocks are orders of magnitude smaller; the bound exists so that a
// corrupted header claiming 2^32-scale geometry cannot overflow the
// size arithmetic below (always performed in int64, so the guarantee
// holds on 32-bit platforms too) and slip past the truncation checks.
const maxBlockDim = 1 << 28

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

// blockScratch is the decode target of one daemon: the three decoders
// copy a block's arrays out of the segment into it and return views of
// it, so a daemon that has seen its largest block decodes without
// allocating. The views are valid until the next decode into the same
// scratch. A daemon handles one block at a time, so the kinds share
// arrays: an apply batch's ids and attribute rows land in vb, a merge
// block's two accumulators in vb.Attrs and msgs.
//
// The arrays are copies, not views of the segment: kernels take
// []float64 rows, the attribute array is only 4-byte aligned in the
// segment when nVerts is odd, and reinterpreting bytes needs unsafe.
type blockScratch struct {
	eb   graph.EdgeBlock
	vb   graph.VertexBlock
	msgs []float64
	recv []bool
}

type cursor struct {
	buf []byte
	off int
}

func (c *cursor) u32(v uint32) {
	binary.LittleEndian.PutUint32(c.buf[c.off:], v)
	c.off += 4
}
func (c *cursor) i32(v int32) { c.u32(uint32(v)) }
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
func (c *cursor) rdI32() int32 { return int32(c.rdU32()) }
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

// encodeGenBlock writes an edge block plus its paired vertex block into
// seg and returns the number of payload bytes written (excluding the
// reserved result area). resident marks the topology as already held by
// the daemon from the previous iteration, so only attribute bytes move
// across the device link.
func encodeGenBlock(seg []byte, eb *graph.EdgeBlock, vb *graph.VertexBlock, msgW int, resident bool) (int, error) {
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

// decodeGenBlock reads the agent's payload back out of a segment into sc.
// sc grows only after the header's geometry is known to be plausible and
// to fit the segment, so a lying header cannot size an allocation.
func decodeGenBlock(seg []byte, sc *blockScratch) (eb *graph.EdgeBlock, vb *graph.VertexBlock, msgW int, resident bool, resultOff int, err error) {
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
		eb.Triplets[i] = graph.Triplet{
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

// writeGenResult stores the daemon's accumulator, receive flags and
// device cost at the reserved offset.
func writeGenResult(seg []byte, resultOff int, acc []float64, recv []bool, costNanos uint64) {
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

// readGenResultInto extracts the daemon's results: acc and recv supply
// the geometry the caller encoded (len(acc) = nVerts*msgW, len(recv) =
// nVerts) and receive the results.
func readGenResultInto(seg []byte, resultOff int, acc []float64, recv []bool) (costNanos uint64) {
	c := &cursor{buf: seg, off: resultOff}
	for i := range acc {
		acc[i] = c.rdF64()
	}
	for i := range recv {
		recv[i] = c.rdB() != 0
	}
	return c.rdU64()
}

// encodeApplyBlock writes an apply batch: vertex rows with their merged
// messages and receive flags.
func encodeApplyBlock(seg []byte, ids []graph.VertexID, attrs []float64, attrW int, msgs []float64, msgW int, recv []bool) (int, error) {
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

// decodeApplyBlock reads an apply batch on the daemon side into sc, under
// the same grow-after-validation rule as decodeGenBlock.
func decodeApplyBlock(seg []byte, sc *blockScratch) (ids []graph.VertexID, attrs []float64, attrW int, msgs []float64, msgW int, recv []bool, resultOff int, err error) {
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
	ids = grow(&sc.vb.IDs, n)
	for i := range ids {
		ids[i] = graph.VertexID(c.rdU32())
	}
	attrs = grow(&sc.vb.Attrs, n*attrW)
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

// writeApplyResult stores updated attributes in place plus changed flags
// and cost. attrOff is where the attribute array began in the segment.
func writeApplyResult(seg []byte, attrOff int, attrs []float64, resultOff int, changed []bool, costNanos uint64) {
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

// readApplyResultInto extracts updated attributes and changed flags on
// the agent side into attrs (n*attrW) and changed (n). The layout mirrors
// encodeApplyBlock.
func readApplyResultInto(seg []byte, n, attrW, msgW int, attrs []float64, changed []bool) (costNanos uint64) {
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

// encodeMergeBlock writes two accumulator arrays for a daemon-side merge.
func encodeMergeBlock(seg []byte, accA, accB []float64, msgW int) (int, error) {
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

// decodeMergeBlock reads the two accumulators on the daemon side into sc,
// under the same grow-after-validation rule as decodeGenBlock.
func decodeMergeBlock(seg []byte, sc *blockScratch) (accA, accB []float64, msgW, resultOff int, err error) {
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
	accA = grow(&sc.vb.Attrs, rows*msgW)
	for i := range accA {
		accA[i] = c.rdF64()
	}
	accB = grow(&sc.msgs, rows*msgW)
	for i := range accB {
		accB[i] = c.rdF64()
	}
	return accA, accB, msgW, c.off, nil
}

// writeMergeResult stores the merged accumulator over accA's slot.
func writeMergeResult(seg []byte, merged []float64, costNanos uint64) {
	c := &cursor{buf: seg, off: 3 * 4}
	for _, v := range merged {
		c.f64(v)
	}
	// Cost goes at the reserved tail.
	tail := &cursor{buf: seg, off: 3*4 + 2*len(merged)*8}
	tail.u64(costNanos)
}

// readMergeResultInto extracts the merged accumulator: merged supplies
// the geometry (rows*msgW) and receives it.
func readMergeResultInto(seg []byte, merged []float64) (costNanos uint64) {
	c := &cursor{buf: seg, off: 3 * 4}
	for i := range merged {
		merged[i] = c.rdF64()
	}
	tail := &cursor{buf: seg, off: 3*4 + 2*len(merged)*8}
	return tail.rdU64()
}
