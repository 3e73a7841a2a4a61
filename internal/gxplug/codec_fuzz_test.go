package gxplug

import (
	"encoding/binary"
	"math"
	"testing"

	"gxplug/internal/graph"
)

// fzr derives structured values from fuzz bytes; exhausted input yields
// zeros, so every byte string maps to a well-defined block.
type fzr struct {
	data []byte
	off  int
}

func (f *fzr) byte() byte {
	if f.off >= len(f.data) {
		return 0
	}
	b := f.data[f.off]
	f.off++
	return b
}

func (f *fzr) u32() uint32 {
	return uint32(f.byte()) | uint32(f.byte())<<8 | uint32(f.byte())<<16 | uint32(f.byte())<<24
}

func (f *fzr) f64() float64 {
	var u uint64
	for i := 0; i < 64; i += 8 {
		u |= uint64(f.byte()) << i
	}
	return math.Float64frombits(u)
}

// bitsEq compares float64 slices bit for bit (NaN payloads included —
// the codec must be transparent).
func bitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// dirtyScratch returns a decode scratch that has seen a block larger than
// any the round-trip fuzzers build, every array full of junk: what a
// daemon's scratch looks like when a small block follows a big one.
func dirtyScratch() *blockScratch {
	sc := &blockScratch{
		eb:   graph.EdgeBlock{Triplets: make([]graph.Triplet, 64)},
		vb:   graph.VertexBlock{IDs: make([]graph.VertexID, 64), Stride: 9, Attrs: make([]float64, 512)},
		msgs: make([]float64, 512),
		recv: make([]bool, 64),
	}
	for i := range sc.eb.Triplets {
		sc.eb.Triplets[i] = graph.Triplet{Src: 0xDEAD, Dst: 0xBEEF, W: math.NaN(), SrcRow: -7, DstRow: -9}
	}
	for i := range sc.vb.IDs {
		sc.vb.IDs[i] = 0xFEEDFACE
	}
	for i := range sc.vb.Attrs {
		sc.vb.Attrs[i], sc.msgs[i] = math.Inf(-1), math.NaN()
	}
	for i := range sc.recv {
		sc.recv[i] = i%2 == 0
	}
	return sc
}

func sameIDs(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFlags(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameTriplets(a, b []graph.Triplet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || a[i].SrcRow != b[i].SrcRow || a[i].DstRow != b[i].DstRow ||
			math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return false
		}
	}
	return true
}

// FuzzCodecRoundTrip drives all three block codecs (gen, apply, merge)
// with fuzz-derived geometry and payloads: encode into an exactly-sized
// segment, decode, and require the bit-exact originals back, result
// areas included. Each block is decoded twice — into a zero scratch and
// into a dirty, previously larger one — and the two must agree: nothing
// of an earlier block may show through a reused scratch.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte("gen-block-seed"))
	f.Add([]byte("apply-block-seed"))
	f.Add([]byte{2, 3, 1, 2, 0xff, 0x00, 0x80, 0x7f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fzr{data: data}
		switch r.byte() % 3 {
		case 0:
			fuzzGenRoundTrip(t, r)
		case 1:
			fuzzApplyRoundTrip(t, r)
		default:
			fuzzMergeRoundTrip(t, r)
		}
	})
}

func fuzzGenRoundTrip(t *testing.T, r *fzr) {
	nT := int(r.byte()) % 16
	nV := 1 + int(r.byte())%16
	attrW := 1 + int(r.byte())%4
	msgW := 1 + int(r.byte())%4
	resident := r.byte()&1 == 1

	eb := &graph.EdgeBlock{Triplets: make([]graph.Triplet, nT)}
	for i := range eb.Triplets {
		eb.Triplets[i] = graph.Triplet{
			Src:    graph.VertexID(r.u32()),
			Dst:    graph.VertexID(r.u32()),
			SrcRow: int32(r.u32()),
			DstRow: int32(r.u32()),
			W:      r.f64(),
		}
	}
	vb := &graph.VertexBlock{IDs: make([]graph.VertexID, nV), Stride: attrW, Attrs: make([]float64, nV*attrW)}
	for i := range vb.IDs {
		vb.IDs[i] = graph.VertexID(r.u32())
	}
	for i := range vb.Attrs {
		vb.Attrs[i] = r.f64()
	}

	seg := make([]byte, genBlockSize(nT, nV, attrW, msgW))
	payload, err := encodeGenBlock(seg, eb, vb, msgW, resident)
	if err != nil {
		t.Fatalf("encode rejected exactly-sized segment: %v", err)
	}
	gotEB, gotVB, gotMsgW, gotRes, resultOff, err := decodeGenBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatalf("decode of valid block failed: %v", err)
	}
	dEB, dVB, dMsgW, dRes, dOff, err := decodeGenBlock(seg, dirtyScratch())
	if err != nil || dMsgW != gotMsgW || dRes != gotRes || dOff != resultOff || dVB.Stride != gotVB.Stride ||
		!sameTriplets(dEB.Triplets, gotEB.Triplets) || !sameIDs(dVB.IDs, gotVB.IDs) || !bitsEq(dVB.Attrs, gotVB.Attrs) {
		t.Fatalf("gen decode through a dirty scratch differs from a fresh one (err %v)", err)
	}
	if resultOff != payload {
		t.Fatalf("result offset %d, payload ended at %d", resultOff, payload)
	}
	if gotMsgW != msgW || gotRes != resident || len(gotEB.Triplets) != nT || len(gotVB.IDs) != nV || gotVB.Stride != attrW {
		t.Fatal("geometry changed in round trip")
	}
	if !sameTriplets(gotEB.Triplets, eb.Triplets) {
		t.Fatal("triplets changed in round trip")
	}
	if !sameIDs(gotVB.IDs, vb.IDs) {
		t.Fatal("vertex ids changed in round trip")
	}
	if !bitsEq(gotVB.Attrs, vb.Attrs) {
		t.Fatal("attrs changed in round trip")
	}

	// Result area: accumulator + receive flags + cost survive bit-exact.
	acc := make([]float64, nV*msgW)
	recv := make([]bool, nV)
	for i := range acc {
		acc[i] = r.f64()
	}
	for i := range recv {
		recv[i] = r.byte()&1 == 1
	}
	cost := uint64(r.u32())
	writeGenResult(seg, resultOff, acc, recv, cost)
	gotAcc := make([]float64, nV*msgW)
	gotRecv := make([]bool, nV)
	if gotCost := readGenResultInto(seg, resultOff, gotAcc, gotRecv); gotCost != cost {
		t.Fatalf("cost %d -> %d", cost, gotCost)
	}
	if !bitsEq(gotAcc, acc) {
		t.Fatal("accumulator changed in round trip")
	}
	for i := range recv {
		if gotRecv[i] != recv[i] {
			t.Fatalf("recv flag %d changed", i)
		}
	}
}

func fuzzApplyRoundTrip(t *testing.T, r *fzr) {
	n := 1 + int(r.byte())%16
	attrW := 1 + int(r.byte())%4
	msgW := 1 + int(r.byte())%4
	ids := make([]graph.VertexID, n)
	attrs := make([]float64, n*attrW)
	msgs := make([]float64, n*msgW)
	recv := make([]bool, n)
	for i := range ids {
		ids[i] = graph.VertexID(r.u32())
	}
	for i := range attrs {
		attrs[i] = r.f64()
	}
	for i := range msgs {
		msgs[i] = r.f64()
	}
	for i := range recv {
		recv[i] = r.byte()&1 == 1
	}

	seg := make([]byte, applyBlockSize(n, attrW, msgW))
	payload, err := encodeApplyBlock(seg, ids, attrs, attrW, msgs, msgW, recv)
	if err != nil {
		t.Fatalf("encode rejected exactly-sized segment: %v", err)
	}
	gotIDs, gotAttrs, gotAttrW, gotMsgs, gotMsgW, gotRecv, resultOff, err := decodeApplyBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatalf("decode of valid block failed: %v", err)
	}
	dIDs, dAttrs, dAttrW, dMsgs, dMsgW, dRecv, dOff, err := decodeApplyBlock(seg, dirtyScratch())
	if err != nil || dAttrW != gotAttrW || dMsgW != gotMsgW || dOff != resultOff || !sameIDs(dIDs, gotIDs) ||
		!bitsEq(dAttrs, gotAttrs) || !bitsEq(dMsgs, gotMsgs) || !sameFlags(dRecv, gotRecv) {
		t.Fatalf("apply decode through a dirty scratch differs from a fresh one (err %v)", err)
	}
	if resultOff != payload || gotAttrW != attrW || gotMsgW != msgW || len(gotIDs) != n {
		t.Fatal("geometry changed in round trip")
	}
	for i := range ids {
		if gotIDs[i] != ids[i] || gotRecv[i] != recv[i] {
			t.Fatalf("row %d changed", i)
		}
	}
	if !bitsEq(gotAttrs, attrs) || !bitsEq(gotMsgs, msgs) {
		t.Fatal("payload changed in round trip")
	}

	// Updated attributes + changed flags + cost.
	upd := make([]float64, n*attrW)
	changed := make([]bool, n)
	for i := range upd {
		upd[i] = r.f64()
	}
	for i := range changed {
		changed[i] = r.byte()&1 == 1
	}
	cost := uint64(r.u32())
	writeApplyResult(seg, 4*4+n*4, upd, applyBlockSize(n, attrW, msgW)-n-8, changed, cost)
	gotUpd := make([]float64, n*attrW)
	gotChanged := make([]bool, n)
	if gotCost := readApplyResultInto(seg, n, attrW, msgW, gotUpd, gotChanged); gotCost != cost {
		t.Fatalf("cost %d -> %d", cost, gotCost)
	}
	if !bitsEq(gotUpd, upd) {
		t.Fatal("updated attrs changed in round trip")
	}
	for i := range changed {
		if gotChanged[i] != changed[i] {
			t.Fatalf("changed flag %d lost", i)
		}
	}
}

func fuzzMergeRoundTrip(t *testing.T, r *fzr) {
	rows := 1 + int(r.byte())%32
	msgW := 1 + int(r.byte())%4
	accA := make([]float64, rows*msgW)
	accB := make([]float64, rows*msgW)
	for i := range accA {
		accA[i] = r.f64()
	}
	for i := range accB {
		accB[i] = r.f64()
	}
	seg := make([]byte, mergeBlockSize(rows, msgW))
	if _, err := encodeMergeBlock(seg, accA, accB, msgW); err != nil {
		t.Fatalf("encode rejected exactly-sized segment: %v", err)
	}
	gotA, gotB, gotMsgW, resultOff, err := decodeMergeBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatalf("decode of valid block failed: %v", err)
	}
	dA, dB, dMsgW, dOff, err := decodeMergeBlock(seg, dirtyScratch())
	if err != nil || dMsgW != gotMsgW || dOff != resultOff || !bitsEq(dA, gotA) || !bitsEq(dB, gotB) {
		t.Fatalf("merge decode through a dirty scratch differs from a fresh one (err %v)", err)
	}
	if gotMsgW != msgW || !bitsEq(gotA, accA) || !bitsEq(gotB, accB) {
		t.Fatal("merge block changed in round trip")
	}

	merged := make([]float64, rows*msgW)
	for i := range merged {
		merged[i] = r.f64()
	}
	cost := uint64(r.u32())
	writeMergeResult(seg, merged, cost)
	gotMerged := make([]float64, rows*msgW)
	if gotCost := readMergeResultInto(seg, gotMerged); gotCost != cost {
		t.Fatalf("cost %d -> %d", cost, gotCost)
	}
	if !bitsEq(gotMerged, merged) {
		t.Fatal("merged accumulator changed in round trip")
	}
}

// scratchBytes is the memory a decode scratch holds.
func scratchBytes(sc *blockScratch) int {
	return cap(sc.eb.Triplets)*tripletBytes + cap(sc.vb.IDs)*4 + cap(sc.vb.Attrs)*8 + cap(sc.msgs)*8 + cap(sc.recv)
}

// FuzzCodecDecodeNoPanic throws arbitrary bytes at all three decoders:
// truncated headers, implausible geometry and short payloads must come
// back as errors, never as panics or out-of-range reads. It is also the
// guard on what sizes the daemon's scratch (the wiresize lint cannot see
// through grow): a rejected block grows nothing, and an accepted one
// nothing beyond the bytes it really occupies in the segment.
func FuzzCodecDecodeNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("short"))
	// Valid kind words with hostile geometry behind them.
	for _, kind := range []uint32{blockKindGen, blockKindApply, blockKindMerge} {
		hdr := make([]byte, 6*4)
		binary.LittleEndian.PutUint32(hdr, kind)
		binary.LittleEndian.PutUint32(hdr[4:], 0xFFFFFFFF)
		binary.LittleEndian.PutUint32(hdr[8:], 0xFFFFFFFF)
		binary.LittleEndian.PutUint32(hdr[12:], 0xFFFFFFFF)
		f.Add(append([]byte(nil), hdr...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(kind string, sc *blockScratch, err error) {
			if n := scratchBytes(sc); err != nil && n != 0 {
				t.Fatalf("rejected %s block grew the scratch to %d bytes", kind, n)
			} else if n > len(data) {
				t.Fatalf("%s block of %d bytes grew the scratch to %d", kind, len(data), n)
			}
		}
		var g, a, m blockScratch
		_, _, _, _, _, err := decodeGenBlock(data, &g)
		check("gen", &g, err)
		_, _, _, _, _, _, _, err = decodeApplyBlock(data, &a)
		check("apply", &a, err)
		_, _, _, _, err = decodeMergeBlock(data, &m)
		check("merge", &m, err)
	})
}
