// Package gxplug implements the GX-Plug middleware core: the daemon-agent
// framework of §II, with daemons as accelerator-owning goroutine
// "processes" reachable only through the System V IPC layer, agents
// embedded in upper-system nodes, shared-memory block exchange, the
// pipeline-shuffle rotation protocol of §III-A, synchronization caching
// and skipping of §III-B, and the workload-balancing hooks of §III-C.
// Every array a block carries, vertex ids and attribute and message rows,
// crosses a segment through internal/le, the tree's one little-endian
// array codec.
package gxplug

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"gxplug/internal/graph"
	"gxplug/internal/le"
)

// The codec serializes vertex/edge blocks into shared-memory segments —
// the "data packager" of §IV-B1: bit-level layout, no reflection, space
// reserved for the daemon's results so no second buffer is needed. Each
// block kind has one byte map (genLayout, applyLayout, mergeLayout),
// computed from its header counts; the encoder, the decoder, the daemon's
// result writes and the agent's result reads all take their offsets from
// it. A Gen block names its window of the topology segment, where the
// agent plans triplets in wire form (putTriplet) and the daemon's kernel
// reads them. The daemon's cost travels in its reply (encodeCost), never
// in a block.

const (
	blockKindGen   = 0xB10C0001
	blockKindApply = 0xB10C0002
	blockKindMerge = 0xB10C0003
)

// A wire-form triplet is tripletBytes little-endian bytes: src, dst,
// srcRow and dstRow as u32 at these offsets, then w as an f64. srcRow and
// dstRow index the vertex rows of its block.
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
//	header  kind, nT, nV, attrW, msgW, resident, first (u32 each) agent
//	ids     nV vertex ids (u32)                                   agent
//	attrs   nV rows of attrW f64                                  agent
//	acc     nV rows of msgW f64: the merged messages              daemon
//	recv    nV bytes: 1 where row r received a message            daemon
//	end
//
// Its triplets are [first, first+nT) of the topology segment. The payload
// is [0, acc): what the agent writes. [acc, end) is the result area the
// daemon writes and the agent drains.
type genLayout struct{ ids, attrs, acc, recv, end int64 }

func layGen(nV, attrW, msgW int64) genLayout {
	var l genLayout
	l.ids = 7 * 4
	l.attrs = l.ids + nV*4
	l.acc = l.attrs + nV*attrW*8
	l.recv = l.acc + nV*msgW*8
	l.end = l.recv + nV
	return l
}

// genBytesIn is what the device link carries of a Gen block of nT
// triplets and nV vertex rows, as when a block carried its triplets: a
// six-word header, the triplets, ids and attribute rows, or the ids and
// attribute rows alone when the daemon holds the topology (resident).
func genBytesIn(nT, nV, attrW int64, resident bool) int64 {
	if resident {
		return nV * (4 + 8*attrW)
	}
	return 6*4 + nT*tripletBytes + nV*(4+8*attrW)
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
func readHeader(seg []byte, kind uint32, name string, words, dims int) (h [6]int64, err error) {
	if len(seg) < 4*words {
		return h, fmt.Errorf("gxplug: %s block header truncated (%d bytes)", name, len(seg))
	}
	var w [7]uint32
	le.Get(w[:words], seg)
	if w[0] != kind {
		return h, fmt.Errorf("gxplug: segment kind %#x, want %s block", w[0], name)
	}
	for i, v := range w[1:words] {
		h[i] = int64(v)
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
// block's arrays out of the segment into it (le.Get) and return views of
// it, valid until the next decode, so a daemon that has seen its largest
// block decodes without allocating. A daemon handles one block at a time,
// so the kinds share arrays: attribute rows land in attrs, a merge block's
// two accumulators in attrs and msgs, an apply batch's vertex ids in ids.
// A Gen block's triplets and vertex ids are not copied. Attribute rows are
// copies, not views of the segment: kernels take []float64 rows, and the
// attribute array is only 4-byte aligned when a block lists an odd number
// of vertices.
type blockScratch struct {
	ids   []graph.VertexID
	attrs []float64
	msgs  []float64
	recv  []bool
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

// encodeGenBlock writes the header of a Gen block over triplets [first,
// first+nT) and its vertex ids into seg, and returns the block's layout:
// the caller fills the attribute section with len(ids) rows of attrW
// values (le.Put). resident marks the topology as already held by the
// daemon from the previous iteration (genBytesIn).
func encodeGenBlock(seg []byte, first, nT int, ids []graph.VertexID, attrW, msgW int, resident bool) (genLayout, error) {
	l := layGen(int64(len(ids)), int64(attrW), int64(msgW))
	if l.end > int64(len(seg)) {
		return l, needs("gen", l.end, seg)
	}
	le.Put(seg, []uint32{blockKindGen, uint32(nT), uint32(len(ids)), uint32(attrW), uint32(msgW), uint32(b2u(resident)), uint32(first)})
	le.Put(seg[l.ids:l.attrs], ids)
	return l, nil
}

// genBlock is a Gen block as the daemon's kernel sees it: its window of
// the topology segment, which the kernel reads in place, and the attribute
// rows, copied out of the segment into the daemon's scratch.
type genBlock struct {
	trips       []byte
	nV          int
	attrs       []float64 // nV rows of attrW values
	attrW, msgW int
	resident    bool
	at          genLayout
}

// decodeGenBlock validates a Gen block's header and geometry against the
// segment, and its triplet window against topo, the daemon's view of the
// topology segment, and returns the block. Only the attribute rows land in
// sc, and sc grows only after the block is known to fit both, so a lying
// header cannot size an allocation. The kernel checks the triplets' rows
// as it reads them (genKernel.chunk).
func decodeGenBlock(seg, topo []byte, sc *blockScratch) (genBlock, error) {
	h, err := readHeader(seg, blockKindGen, "gen", 7, 4)
	if err != nil {
		return genBlock{}, err
	}
	l := layGen(h[1], h[2], h[3])
	if l.end > int64(len(seg)) {
		return genBlock{}, fmt.Errorf("gxplug: truncated gen block")
	}
	// first is a u32 and nT at most maxBlockDim: in int64 nothing wraps.
	lo, hi := h[5]*tripletBytes, (h[5]+h[0])*tripletBytes
	if hi > int64(len(topo)) {
		return genBlock{}, fmt.Errorf("gxplug: gen block triplets [%d, %d) run past a topology of %d", h[5], h[5]+h[0], len(topo)/tripletBytes)
	}
	b := genBlock{trips: topo[lo:hi:hi], nV: int(h[1]), attrW: int(h[2]), msgW: int(h[3]), resident: h[4] != 0, at: l}
	b.attrs = grow(&sc.attrs, b.nV*b.attrW)
	le.Get(b.attrs, seg[l.attrs:l.acc])
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
	le.Put(seg, []uint32{blockKindApply, uint32(n), uint32(attrW), uint32(msgW)})
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
	le.Get(b.ids, seg[l.ids:l.attrs])
	b.attrs = grow(&sc.attrs, n*b.attrW)
	le.Get(b.attrs, seg[l.attrs:l.msgs])
	b.msgs = grow(&sc.msgs, n*b.msgW)
	le.Get(b.msgs, seg[l.msgs:l.recv])
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
	le.Put(seg, []uint32{blockKindMerge, uint32(rows), uint32(msgW)})
	le.Put(seg[l.a:l.b], accA)
	le.Put(seg[l.b:l.end], accB)
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
	le.Get(m.a, seg[l.a:l.b])
	m.b = grow(&sc.msgs, int(h[0]*h[1]))
	le.Get(m.b, seg[l.b:l.end])
	return m, nil
}
