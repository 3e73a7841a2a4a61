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
	"strconv"
	"strings"
	"unsafe"

	"gxplug/internal/graph"
)

// The codec serializes vertex/edge blocks into shared-memory segments —
// the "data packager" of §IV-B1: bit-level layout, no reflection, space
// reserved for the daemon's results so no second buffer is needed. Each
// block kind has one byte map (genLayout, applyLayout, mergeLayout),
// computed from its header counts; the encoder, the decoder, the daemon's
// result writes and the agent's result reads all take their offsets from
// it. A Gen block's triplets are bytes end to end: the agent plans them in
// wire form (putTriplet), its encoder copies the planned section into the
// segment in one move, and the daemon's kernel reads them where they lie.
// The daemon's cost travels in its reply (encodeCost), never in a block.

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
// layout arithmetic below (always performed in int64, so the guarantee
// holds on 32-bit platforms too) and slip past the truncation checks.
const maxBlockDim = 1 << 28

// genLayout is a Gen block's byte map. Each field is the offset at which
// a section starts; the section ends where the next one starts.
//
//	header  kind, nT, nV, attrW, msgW, resident (u32 each)    agent
//	trips   nT wire-form triplets                             agent
//	ids     nV vertex ids (u32)                               agent
//	attrs   nV rows of attrW f64                              agent
//	acc     nV rows of msgW f64: the merged messages          daemon
//	recv    nV bytes: 1 where row r received a message        daemon
//	end
//
// The payload is [0, acc): what the agent ships. [acc, end) is the result
// area the daemon writes and the agent drains.
type genLayout struct{ trips, ids, attrs, acc, recv, end int64 }

func layGen(nT, nV, attrW, msgW int64) genLayout {
	var l genLayout
	l.trips = 6 * 4
	l.ids = l.trips + nT*tripletBytes
	l.attrs = l.ids + nV*4
	l.acc = l.attrs + nV*attrW*8
	l.recv = l.acc + nV*msgW*8
	l.end = l.recv + nV
	return l
}

// applyLayout is an Apply block's byte map, in the same form.
//
//	header   kind, n, attrW, msgW (u32 each)                  agent
//	ids      n vertex ids (u32)                               agent
//	attrs    n rows of attrW f64; MSGApply's rows overwrite   agent, then daemon
//	msgs     n rows of msgW f64: each vertex's merged message agent
//	recv     n bytes: 1 where the vertex received a message   agent
//	changed  n bytes: MSGApply's result                       daemon
//	end
type applyLayout struct{ ids, attrs, msgs, recv, changed, end int64 }

func layApply(n, attrW, msgW int64) applyLayout {
	var l applyLayout
	l.ids = 4 * 4
	l.attrs = l.ids + n*4
	l.msgs = l.attrs + n*attrW*8
	l.recv = l.msgs + n*msgW*8
	l.changed = l.recv + n
	l.end = l.changed + n
	return l
}

// mergeLayout is a Merge block's byte map.
//
//	header  kind, rows, msgW (u32 each)                       agent
//	a       rows of msgW f64; the merged rows overwrite       agent, then daemon
//	b       rows of msgW f64, folded into a                   agent
//	end
type mergeLayout struct{ a, b, end int64 }

func layMerge(rows, msgW int64) mergeLayout {
	var l mergeLayout
	l.a = 3 * 4
	l.b = l.a + rows*msgW*8
	l.end = l.b + rows*msgW*8
	return l
}

// readHeader checks that seg opens with a block header of the given kind,
// words u32 long, and returns the words after the kind word. The first
// dims of them are block dimensions, each at most maxBlockDim.
func readHeader(seg []byte, kind uint32, name string, words, dims int) (h [5]int64, err error) {
	if len(seg) < 4*words {
		return h, fmt.Errorf("gxplug: %s block header truncated (%d bytes)", name, len(seg))
	}
	if k := binary.LittleEndian.Uint32(seg); k != kind {
		return h, fmt.Errorf("gxplug: segment kind %#x, want %s block", k, name)
	}
	for i := range words - 1 {
		h[i] = int64(binary.LittleEndian.Uint32(seg[4+4*i:]))
	}
	for _, d := range h[:dims] {
		if d > maxBlockDim {
			return h, implausible(name, h[:dims])
		}
	}
	return h, nil
}

// implausible reports a header whose geometry no block has.
func implausible(name string, dims []int64) error {
	s := make([]string, len(dims))
	for i, d := range dims {
		s[i] = strconv.FormatInt(d, 10)
	}
	return fmt.Errorf("gxplug: implausible %s block geometry %s", name, strings.Join(s, "/"))
}

// needs reports a segment too small for the block about to be encoded.
func needs(name string, end int64, seg []byte) error {
	return fmt.Errorf("gxplug: %s block needs %d bytes, segment has %d", name, end, len(seg))
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
// []float64 rows, and the attribute array is only 4-byte aligned in the
// segment when a block lists an odd number of vertices. The copy itself
// is one move of bytes on a little-endian host (getF64s).
type blockScratch struct {
	ids   []graph.VertexID
	attrs []float64
	msgs  []float64
	recv  []bool
}

// nativeLE reports whether this host lays a float64 out as the segment
// does: the little-endian bytes of its bits. Then a row's memory image is
// its wire form, and putF64s and getF64s move it with one copy.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64CopyMin is the shortest row putF64s and getF64s copy as one block of
// bytes: below it the per-value loop costs less than the call to memmove
// (BenchmarkF64Codec).
const f64CopyMin = 3

// putF64s writes vals little-endian into dst (8*len(vals) bytes). It and
// getF64s are the tree's only use of unsafe: the copy's source or target
// is the row's memory image, unsafe.Slice over its 8*len bytes.
func putF64s(dst []byte, vals []float64) {
	dst = dst[:8*len(vals)]
	if nativeLE && len(vals) >= f64CopyMin {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(dst)))
		return
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// getF64s reads len(dst) little-endian values from src into dst.
func getF64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	if nativeLE && len(dst) >= f64CopyMin {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(src)), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// putBools writes one byte per flag into dst: 1 for true, 0 for false.
func putBools(dst []byte, flags []bool) {
	dst = dst[:len(flags)]
	for i, f := range flags {
		dst[i] = b2u(f)
	}
}

func b2u(f bool) byte {
	if f {
		return 1
	}
	return 0
}

// encodeGenBlock writes a Gen block's header, its wire-form triplet
// section trips (one copy) and its vertex ids into seg, and returns the
// block's layout: the caller fills the attribute section with len(ids)
// rows of attrW values (putF64s). resident marks the topology as already
// held by the daemon from the previous iteration, so only attribute bytes
// move across the device link.
func encodeGenBlock(seg, trips []byte, ids []graph.VertexID, attrW, msgW int, resident bool) (genLayout, error) {
	nT := len(trips) / tripletBytes
	l := layGen(int64(nT), int64(len(ids)), int64(attrW), int64(msgW))
	if l.end > int64(len(seg)) {
		return l, needs("gen", l.end, seg)
	}
	for i, w := range [...]uint32{blockKindGen, uint32(nT), uint32(len(ids)), uint32(attrW), uint32(msgW), uint32(b2u(resident))} {
		binary.LittleEndian.PutUint32(seg[4*i:], w)
	}
	copy(seg[l.trips:l.ids], trips)
	idSec := seg[l.ids:l.attrs]
	for i, id := range ids {
		binary.LittleEndian.PutUint32(idSec[4*i:], uint32(id))
	}
	return l, nil
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
	at          genLayout
}

// decodeGenBlock validates a Gen block's header and geometry against the
// segment and returns the block. Only the attribute rows land in sc, and
// sc grows only after the header's geometry is known to be plausible and
// to fit the segment, so a lying header cannot size an allocation. The
// triplets' rows are not checked here: the kernel checks each one as it
// reads it (genKernel.chunk).
func decodeGenBlock(seg []byte, sc *blockScratch) (genBlock, error) {
	h, err := readHeader(seg, blockKindGen, "gen", 6, 4)
	if err != nil {
		return genBlock{}, err
	}
	l := layGen(h[0], h[1], h[2], h[3])
	if l.end > int64(len(seg)) {
		return genBlock{}, fmt.Errorf("gxplug: truncated gen block")
	}
	b := genBlock{nV: int(h[1]), attrW: int(h[2]), msgW: int(h[3]), resident: h[4] != 0, at: l}
	b.trips = seg[l.trips:l.ids:l.ids] // the vertex ids stay in the segment
	b.attrs = grow(&sc.attrs, b.nV*b.attrW)
	getF64s(b.attrs, seg[l.attrs:l.acc])
	return b, nil
}

// encodeApplyBlock writes the header of an apply batch of n vertices and
// returns its layout; the caller writes the ids, attribute rows, merged
// messages and receive flags into their sections.
func encodeApplyBlock(seg []byte, n, attrW, msgW int) (applyLayout, error) {
	l := layApply(int64(n), int64(attrW), int64(msgW))
	if l.end > int64(len(seg)) {
		return l, needs("apply", l.end, seg)
	}
	for i, w := range [...]uint32{blockKindApply, uint32(n), uint32(attrW), uint32(msgW)} {
		binary.LittleEndian.PutUint32(seg[4*i:], w)
	}
	return l, nil
}

// applyBlock is an apply batch as the daemon's kernel sees it, copied out
// of the segment into the daemon's scratch.
type applyBlock struct {
	ids         []graph.VertexID
	attrs, msgs []float64
	recv        []bool
	attrW, msgW int
	at          applyLayout
}

// decodeApplyBlock reads an apply batch on the daemon side into sc, under
// the same grow-after-validation rule as decodeGenBlock.
func decodeApplyBlock(seg []byte, sc *blockScratch) (applyBlock, error) {
	h, err := readHeader(seg, blockKindApply, "apply", 4, 3)
	if err != nil {
		return applyBlock{}, err
	}
	l := layApply(h[0], h[1], h[2])
	if l.end > int64(len(seg)) {
		return applyBlock{}, fmt.Errorf("gxplug: truncated apply block")
	}
	n := int(h[0])
	b := applyBlock{attrW: int(h[1]), msgW: int(h[2]), at: l}
	b.ids = grow(&sc.ids, n)
	idSec := seg[l.ids:l.attrs]
	for i := range b.ids {
		b.ids[i] = graph.VertexID(binary.LittleEndian.Uint32(idSec[4*i:]))
	}
	b.attrs = grow(&sc.attrs, n*b.attrW)
	getF64s(b.attrs, seg[l.attrs:l.msgs])
	b.msgs = grow(&sc.msgs, n*b.msgW)
	getF64s(b.msgs, seg[l.msgs:l.recv])
	b.recv = grow(&sc.recv, n)
	for i, f := range seg[l.recv:l.changed] {
		b.recv[i] = f != 0
	}
	return b, nil
}

// encodeMergeBlock writes two accumulator arrays for a daemon-side merge
// and returns the block's layout.
func encodeMergeBlock(seg []byte, accA, accB []float64, msgW int) (mergeLayout, error) {
	if len(accA) != len(accB) || msgW <= 0 || len(accA)%msgW != 0 {
		return mergeLayout{}, fmt.Errorf("gxplug: merge block geometry %d/%d width %d", len(accA), len(accB), msgW)
	}
	rows := len(accA) / msgW
	l := layMerge(int64(rows), int64(msgW))
	if l.end > int64(len(seg)) {
		return l, needs("merge", l.end, seg)
	}
	for i, w := range [...]uint32{blockKindMerge, uint32(rows), uint32(msgW)} {
		binary.LittleEndian.PutUint32(seg[4*i:], w)
	}
	putF64s(seg[l.a:l.b], accA)
	putF64s(seg[l.b:l.end], accB)
	return l, nil
}

// mergeBlock is a merge block as the daemon's kernel sees it: both
// accumulators, copied out of the segment into the daemon's scratch.
type mergeBlock struct {
	a, b []float64 // rows of msgW values each
	msgW int
	at   mergeLayout
}

// decodeMergeBlock reads the two accumulators on the daemon side into sc,
// under the same grow-after-validation rule as decodeGenBlock.
func decodeMergeBlock(seg []byte, sc *blockScratch) (mergeBlock, error) {
	h, err := readHeader(seg, blockKindMerge, "merge", 3, 2)
	if err == nil && h[1] == 0 {
		err = implausible("merge", h[:2])
	}
	if err != nil {
		return mergeBlock{}, err
	}
	l := layMerge(h[0], h[1])
	if l.end > int64(len(seg)) {
		return mergeBlock{}, fmt.Errorf("gxplug: truncated merge block")
	}
	m := mergeBlock{msgW: int(h[1]), at: l}
	m.a = grow(&sc.attrs, int(h[0]*h[1]))
	getF64s(m.a, seg[l.a:l.b])
	m.b = grow(&sc.msgs, int(h[0]*h[1]))
	getF64s(m.b, seg[l.b:l.end])
	return m, nil
}
