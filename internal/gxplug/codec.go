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
// reserved for the daemon's results so no second buffer is needed. A Gen
// block's triplets are bytes end to end: the agent plans them in wire form
// (putTriplet), its encoder copies the planned section into the segment in
// one move, and the daemon's kernel reads them where they lie.

const (
	blockKindGen   = 0xB10C0001
	blockKindApply = 0xB10C0002
	blockKindMerge = 0xB10C0003
)

// A wire-form triplet is tripletBytes little-endian bytes: src, dst,
// srcRow and dstRow as u32 at these offsets, then w as an f64. srcRow and
// dstRow index the block's vertex rows.
const (
	tripSrc      = 0
	tripDst      = 4
	tripSrcRow   = 8
	tripDstRow   = 12
	tripW        = 16
	tripletBytes = 24
)

// putTriplet writes one triplet in wire form into t.
func putTriplet(t []byte, src, dst graph.VertexID, srcRow, dstRow int32, w float64) {
	t = t[:tripletBytes]
	binary.LittleEndian.PutUint32(t[tripSrc:], uint32(src))
	binary.LittleEndian.PutUint32(t[tripDst:], uint32(dst))
	binary.LittleEndian.PutUint32(t[tripSrcRow:], uint32(srcRow))
	binary.LittleEndian.PutUint32(t[tripDstRow:], uint32(dstRow))
	binary.LittleEndian.PutUint64(t[tripW:], math.Float64bits(w))
}

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

// blockScratch is the decode target of one daemon: the decoders copy a
// block's arrays out of the segment into it and return views of it, so a
// daemon that has seen its largest block decodes without allocating. The
// views are valid until the next decode into the same scratch. A daemon
// handles one block at a time, so the kinds share arrays: a Gen block's
// attribute rows and an apply batch's land in attrs, a merge block's two
// accumulators in attrs and msgs. A Gen block's triplets are not copied at
// all (genBlock.trips is a view of the segment), and its vertex ids, which
// no kernel reads, are not decoded.
//
// Attribute rows are copies, not views of the segment: kernels take
// []float64 rows, the attribute array is only 4-byte aligned in the
// segment when a block lists an odd number of vertices, and reinterpreting
// bytes needs unsafe.
type blockScratch struct {
	ids   []graph.VertexID
	attrs []float64
	msgs  []float64
	recv  []bool
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

// encodeGenBlock writes a Gen block's header, its wire-form triplet
// section trips (one copy) and its vertex ids into seg. It returns the
// block's attribute section, which the caller fills with len(ids) rows of
// attrW values (putF64s), and the number of payload bytes (excluding the
// reserved result area). resident marks the topology as already held by
// the daemon from the previous iteration, so only attribute bytes move
// across the device link.
func encodeGenBlock(seg, trips []byte, ids []graph.VertexID, attrW, msgW int, resident bool) (attrSec []byte, payload int, err error) {
	nT := len(trips) / tripletBytes
	need := genBlockSize(nT, len(ids), attrW, msgW)
	if need > len(seg) {
		return nil, 0, fmt.Errorf("gxplug: gen block needs %d bytes, segment has %d", need, len(seg))
	}
	c := &cursor{buf: seg}
	c.u32(blockKindGen)
	c.u32(uint32(nT))
	c.u32(uint32(len(ids)))
	c.u32(uint32(attrW))
	c.u32(uint32(msgW))
	if resident {
		c.u32(1)
	} else {
		c.u32(0)
	}
	c.off += copy(seg[c.off:], trips[:nT*tripletBytes])
	for _, id := range ids {
		c.u32(uint32(id))
	}
	payload = c.off + len(ids)*attrW*8
	return seg[c.off:payload], payload, nil
}

// putF64s writes vals little-endian into dst (8*len(vals) bytes).
func putF64s(dst []byte, vals []float64) {
	dst = dst[:8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// genBlock is a Gen block as the daemon's kernel sees it: the triplet
// section in wire form, a view of the segment that the kernel reads in
// place, and the attribute rows, copied out of the segment into the
// daemon's scratch.
type genBlock struct {
	trips       []byte
	nV          int
	attrs       []float64 // nV rows of attrW values
	attrW, msgW int
	resident    bool
	resultOff   int
}

// decodeGenBlock validates a Gen block's header and geometry against the
// segment and returns the block. Only the attribute rows land in sc, and
// sc grows only after the header's geometry is known to be plausible and
// to fit the segment, so a lying header cannot size an allocation. The
// triplets' rows are not checked here: the kernel checks each one as it
// reads it (genKernel.chunk).
func decodeGenBlock(seg []byte, sc *blockScratch) (genBlock, error) {
	if len(seg) < 6*4 {
		return genBlock{}, fmt.Errorf("gxplug: gen block header truncated (%d bytes)", len(seg))
	}
	c := &cursor{buf: seg}
	if kind := c.rdU32(); kind != blockKindGen {
		return genBlock{}, fmt.Errorf("gxplug: segment kind %#x, want gen block", kind)
	}
	nT := int(c.rdU32())
	nV := int(c.rdU32())
	attrW := int(c.rdU32())
	msgW := int(c.rdU32())
	resident := c.rdU32() != 0
	if !dimsOK(nT, nV, attrW, msgW) {
		return genBlock{}, fmt.Errorf("gxplug: implausible gen block geometry %d/%d/%d/%d", nT, nV, attrW, msgW)
	}
	if genBlockSize64(int64(nT), int64(nV), int64(attrW), int64(msgW)) > int64(len(seg)) {
		return genBlock{}, fmt.Errorf("gxplug: truncated gen block")
	}
	b := genBlock{nV: nV, attrW: attrW, msgW: msgW, resident: resident}
	b.trips = seg[c.off : c.off+nT*tripletBytes : c.off+nT*tripletBytes]
	c.off += nT*tripletBytes + nV*4 // the vertex ids stay in the segment
	b.attrs = grow(&sc.attrs, nV*attrW)
	for i := range b.attrs {
		b.attrs[i] = c.rdF64()
	}
	b.resultOff = c.off
	return b, nil
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
