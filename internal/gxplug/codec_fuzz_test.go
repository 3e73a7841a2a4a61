package gxplug

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"gxplug/internal/device"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
	"gxplug/internal/le"
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
		ids:   make([]graph.VertexID, 64),
		attrs: make([]float64, 512),
		msgs:  make([]float64, 512),
		recv:  make([]bool, 64),
	}
	for i := range sc.ids {
		sc.ids[i] = 0xFEEDFACE
	}
	for i := range sc.attrs {
		sc.attrs[i], sc.msgs[i] = math.Inf(-1), math.NaN()
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

func sameTriplets(a, b []triplet) bool {
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
// areas included, and the oracle codec's bytes up to the block's end.
// Each block is decoded twice — into a zero scratch and into a dirty,
// previously larger one — and the two must agree: nothing of an earlier
// block may show through a reused scratch.
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

// fuzzGenRoundTrip encodes a Gen block through the wire path — triplets
// planned in wire form into a topology, a block naming their window,
// attribute rows after — and holds it to the codec it replaced: laid out
// as the oracle encoder lays it out, the oracle encoder's bytes, and the
// oracle decoder's reading of them.
func fuzzGenRoundTrip(t *testing.T, r *fzr) {
	nT := int(r.byte()) % 16
	nV := 1 + int(r.byte())%16
	attrW := 1 + int(r.byte())%4
	msgW := 1 + int(r.byte())%4
	resident := r.byte()&1 == 1
	first := int(r.byte()) % 4

	eb := &edgeBlock{Triplets: make([]triplet, nT)}
	for i := range eb.Triplets {
		eb.Triplets[i] = triplet{
			Src:    graph.VertexID(r.u32()),
			Dst:    graph.VertexID(r.u32()),
			SrcRow: int32(r.u32()),
			DstRow: int32(r.u32()),
			W:      r.f64(),
		}
	}
	vb := &vertexBlock{IDs: make([]graph.VertexID, nV), Stride: attrW, Attrs: make([]float64, nV*attrW)}
	for i := range vb.IDs {
		vb.IDs[i] = graph.VertexID(r.u32())
	}
	for i := range vb.Attrs {
		vb.Attrs[i] = r.f64()
	}

	l := layGen(int64(nV), int64(attrW), int64(msgW))
	seg, topo := make([]byte, l.end), make([]byte, (first+nT)*tripletBytes)
	payload, err := encodeGenBlockWire(seg, topo, first, eb, vb, msgW, resident)
	if err != nil {
		t.Fatalf("encode rejected exactly-sized segment: %v", err)
	}
	want := make([]byte, genBlockSize(nT, nV, attrW, msgW))
	wantPayload, err := encodeGenBlockOracle(want, eb, vb, msgW, resident)
	if err != nil || !bytes.Equal(oracleGenBytes(seg[:payload], topo), want[:wantPayload]) {
		t.Fatalf("wire encoder wrote %d bytes unlike the oracle encoder's %d (err %v)", payload, wantPayload, err)
	}
	got, err := decodeGenBlock(seg, topo, &blockScratch{})
	if err != nil {
		t.Fatalf("decode of valid block failed: %v", err)
	}
	d, err := decodeGenBlock(seg, topo, dirtyScratch())
	if err != nil || d.msgW != got.msgW || d.resident != got.resident || d.at != got.at || d.nV != got.nV ||
		d.attrW != got.attrW || !bytes.Equal(d.trips, got.trips) || !bitsEq(d.attrs, got.attrs) {
		t.Fatalf("gen decode through a dirty scratch differs from a fresh one (err %v)", err)
	}
	oeb, ovb, oMsgW, oRes, oOff, err := decodeGenBlockOracle(want, &oracleScratch{})
	if err != nil || got.msgW != oMsgW || got.resident != oRes || oOff != wantPayload || got.nV != len(ovb.IDs) ||
		got.attrW != ovb.Stride || !sameTriplets(tripletsOf(got.trips), oeb.Triplets) || !bitsEq(got.attrs, ovb.Attrs) {
		t.Fatalf("gen decode disagrees with the oracle decoder (err %v)", err)
	}
	if got.at != l || got.at.acc != int64(payload) {
		t.Fatalf("layout %+v, encoded %+v, payload ended at %d", got.at, l, payload)
	}
	if got.msgW != msgW || got.resident != resident || len(got.trips) != nT*tripletBytes || got.nV != nV || got.attrW != attrW {
		t.Fatal("geometry changed in round trip")
	}
	if !sameTriplets(oeb.Triplets, eb.Triplets) {
		t.Fatal("triplets changed in round trip")
	}
	if !sameIDs(ovb.IDs, vb.IDs) {
		t.Fatal("vertex ids changed in round trip")
	}
	if !bitsEq(got.attrs, vb.Attrs) {
		t.Fatal("attrs changed in round trip")
	}

	// Result area, written as computeGen writes it: the oracle writer's
	// bytes, and accumulator and receive flags back bit-exact.
	acc := make([]float64, nV*msgW)
	recv := make([]bool, nV)
	for i := range acc {
		acc[i] = r.f64()
	}
	for i := range recv {
		recv[i] = r.byte()&1 == 1
	}
	le.Put(seg[l.acc:l.recv], acc)
	putBools(seg[l.recv:l.end], recv)
	writeGenResultOracle(want, wantPayload, acc, recv, 0)
	if !bytes.Equal(oracleGenBytes(seg, topo), want[:len(want)-8]) {
		t.Fatal("result area differs from the oracle writer's")
	}
	gotAcc := make([]float64, nV*msgW)
	gotRecv := make([]bool, nV)
	le.Get(gotAcc, seg[l.acc:l.recv])
	for i, f := range seg[l.recv:l.end] {
		gotRecv[i] = f != 0
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

	seg := make([]byte, layApply(int64(n), int64(attrW), int64(msgW)).end)
	l, err := encodeApplyWire(seg, ids, attrs, attrW, msgs, msgW, recv)
	if err != nil {
		t.Fatalf("encode rejected exactly-sized segment: %v", err)
	}
	want := make([]byte, applyBlockSize(n, attrW, msgW))
	payload, err := encodeApplyBlockOracle(want, ids, attrs, attrW, msgs, msgW, recv)
	if err != nil || int64(payload) != l.changed || !bytes.Equal(seg[:payload], want[:payload]) {
		t.Fatalf("wire encoder wrote %d bytes unlike the oracle encoder's %d (err %v)", l.changed, payload, err)
	}
	got, err := decodeApplyBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatalf("decode of valid block failed: %v", err)
	}
	d, err := decodeApplyBlock(seg, dirtyScratch())
	if err != nil || d.attrW != got.attrW || d.msgW != got.msgW || d.at != got.at || !sameIDs(d.ids, got.ids) ||
		!bitsEq(d.attrs, got.attrs) || !bitsEq(d.msgs, got.msgs) || !sameFlags(d.recv, got.recv) {
		t.Fatalf("apply decode through a dirty scratch differs from a fresh one (err %v)", err)
	}
	if got.at != l || got.attrW != attrW || got.msgW != msgW || len(got.ids) != n {
		t.Fatal("geometry changed in round trip")
	}
	for i := range ids {
		if got.ids[i] != ids[i] || got.recv[i] != recv[i] {
			t.Fatalf("row %d changed", i)
		}
	}
	if !bitsEq(got.attrs, attrs) || !bitsEq(got.msgs, msgs) {
		t.Fatal("payload changed in round trip")
	}

	// Updated attributes + changed flags, written as computeApply writes
	// them: the oracle writer's bytes, and the values back bit-exact.
	upd := make([]float64, n*attrW)
	changed := make([]bool, n)
	for i := range upd {
		upd[i] = r.f64()
	}
	for i := range changed {
		changed[i] = r.byte()&1 == 1
	}
	le.Put(seg[l.attrs:l.msgs], upd)
	putBools(seg[l.changed:l.end], changed)
	writeApplyResultOracle(want, int(l.attrs), upd, payload, changed, 0)
	if !bytes.Equal(seg, want[:l.end]) {
		t.Fatal("apply result differs from the oracle writer's")
	}
	gotUpd := make([]float64, n*attrW)
	le.Get(gotUpd, seg[l.attrs:l.msgs])
	if !bitsEq(gotUpd, upd) {
		t.Fatal("updated attrs changed in round trip")
	}
	for i, f := range seg[l.changed:l.end] {
		if (f != 0) != changed[i] {
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
	seg := make([]byte, layMerge(int64(rows), int64(msgW)).end)
	l, err := encodeMergeBlock(seg, accA, accB, msgW)
	if err != nil {
		t.Fatalf("encode rejected exactly-sized segment: %v", err)
	}
	want := make([]byte, mergeBlockSize(rows, msgW))
	if payload, err := encodeMergeBlockOracle(want, accA, accB, msgW); err != nil || int64(payload) != l.end || !bytes.Equal(seg, want[:payload]) {
		t.Fatalf("encoder wrote bytes unlike the oracle encoder's (err %v)", err)
	}
	got, err := decodeMergeBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatalf("decode of valid block failed: %v", err)
	}
	d, err := decodeMergeBlock(seg, dirtyScratch())
	if err != nil || d.msgW != got.msgW || d.at != got.at || !bitsEq(d.a, got.a) || !bitsEq(d.b, got.b) {
		t.Fatalf("merge decode through a dirty scratch differs from a fresh one (err %v)", err)
	}
	if got.msgW != msgW || got.at != l || !bitsEq(got.a, accA) || !bitsEq(got.b, accB) {
		t.Fatal("merge block changed in round trip")
	}

	// The merged accumulator, written as computeMerge writes it: the
	// oracle writer's bytes, and the values back bit-exact.
	merged := make([]float64, rows*msgW)
	for i := range merged {
		merged[i] = r.f64()
	}
	le.Put(seg[l.a:l.b], merged)
	writeMergeResultOracle(want, merged, 0)
	if !bytes.Equal(seg, want[:l.end]) {
		t.Fatal("merge result differs from the oracle writer's")
	}
	gotMerged := make([]float64, rows*msgW)
	le.Get(gotMerged, seg[l.a:l.b])
	if !bitsEq(gotMerged, merged) {
		t.Fatal("merged accumulator changed in round trip")
	}
}

// scratchBytes is the memory a decode scratch holds.
func scratchBytes(sc *blockScratch) int {
	return cap(sc.ids)*4 + cap(sc.attrs)*8 + cap(sc.msgs)*8 + cap(sc.recv)
}

// FuzzCodecDecodeNoPanic throws arbitrary bytes at all three decoders:
// truncated headers, implausible geometry, short payloads and Gen blocks
// naming triplets past the topology must come back as errors, never as
// panics or out-of-range reads. The input is both the segment and the
// topology a Gen block's window is read from (genSeed). It is also the
// guard on what sizes the daemon's scratch (the wiresize lint cannot see
// through grow): a rejected block grows nothing, and an accepted one
// nothing beyond the bytes it really occupies in the segment. Every block
// a decoder accepts is computed, on a daemon whose algorithm has the
// block's widths (hostileDaemon): a Gen block's triplets' rows are checked
// only as the kernel reads them (runHostileGen), and the daemon writes an
// Apply or Merge block's results at offsets it takes from the block's
// layout (runHostileApply, runHostileMerge).
func FuzzCodecDecodeNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("short"))
	// Valid kind words with hostile geometry behind them.
	for _, kind := range []uint32{blockKindGen, blockKindApply, blockKindMerge} {
		hdr := make([]byte, 7*4)
		binary.LittleEndian.PutUint32(hdr, kind)
		binary.LittleEndian.PutUint32(hdr[4:], 0xFFFFFFFF)
		binary.LittleEndian.PutUint32(hdr[8:], 0xFFFFFFFF)
		binary.LittleEndian.PutUint32(hdr[12:], 0xFFFFFFFF)
		f.Add(append([]byte(nil), hdr...))
	}
	// Well-formed Gen blocks: one in range, then rows past the block and
	// below it, then a triplet in a block of no vertices, at a message
	// width no vertex count bounds and at a narrow one.
	for _, rows := range [][2]int32{{0, 1}, {1, 3}, {-1, 0}} {
		eb := &edgeBlock{Triplets: []triplet{
			{Src: 4, Dst: 5, W: 1, SrcRow: 0, DstRow: 1},
			{Src: 4, Dst: 6, W: 2, SrcRow: 0, DstRow: 2},
			{Src: 5, Dst: 4, W: 3, SrcRow: rows[0], DstRow: rows[1]},
		}}
		vb := &vertexBlock{IDs: []graph.VertexID{4, 5, 6}, Stride: 2, Attrs: []float64{1, 2, 3, 4, 5, 6}}
		f.Add(genSeed(eb, vb, 1))
	}
	// Well-formed Apply and Merge blocks, sized by their layouts.
	applySeg := make([]byte, layApply(3, 2, 1).end)
	if _, err := encodeApplyWire(applySeg, []graph.VertexID{4, 5, 6}, []float64{1, 2, 3, 4, 5, 6}, 2, []float64{7, 8, 9}, 1, []bool{true, false, true}); err != nil {
		f.Fatal(err)
	}
	f.Add(applySeg)
	mergeSeg := make([]byte, layMerge(2, 2).end)
	if _, err := encodeMergeBlock(mergeSeg, []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(mergeSeg)
	for _, msgW := range []int{maxBlockDim, 2} {
		f.Add(genSeed(&edgeBlock{Triplets: make([]triplet, 1)}, &vertexBlock{Stride: 1}, msgW))
	}
	// Gen blocks whose window runs one triplet past the input, and whose
	// first+nT wraps to a window inside it in u32 arithmetic.
	eb := &edgeBlock{Triplets: []triplet{{Src: 4, Dst: 5, W: 1, SrcRow: 0, DstRow: 1}, {Src: 5, Dst: 4, W: 2, SrcRow: 1, DstRow: 0}}}
	vb := &vertexBlock{IDs: []graph.VertexID{4, 5}, Stride: 1, Attrs: []float64{1, 2}}
	seed := genSeed(eb, vb, 1)
	for _, first := range []uint32{uint32(len(seed)/tripletBytes - 1), 0xFFFFFFFF} {
		bad := bytes.Clone(seed)
		binary.LittleEndian.PutUint32(bad[24:], first)
		f.Add(bad)
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
		_, err := decodeGenBlock(data, data, &g)
		check("gen", &g, err)
		if err == nil {
			runHostileGen(t, data)
		}
		_, err = decodeApplyBlock(data, &a)
		check("apply", &a, err)
		if err == nil {
			runHostileApply(t, data)
		}
		_, err = decodeMergeBlock(data, &m)
		check("merge", &m, err)
		if err == nil {
			runHostileMerge(t, data)
		}
	})
}

// xorAlg is a template algorithm of any width: its messages mix the
// first values of the source row with the edge, and its merge is XOR of
// the bits, so a block of any geometry computes without panicking and the
// result does not depend on how the triplets were cut into chunks. It
// reads and writes at most xorSlots values of a row, so that a hostile
// width costs the fuzzer no more per triplet than a narrow one.
type xorAlg struct{ attrW, msgW int }

const xorSlots = 3

func (xorAlg) Name() string                                      { return "xor" }
func (a xorAlg) AttrWidth() int                                  { return a.attrW }
func (a xorAlg) MsgWidth() int                                   { return a.msgW }
func (xorAlg) Init(*template.Context, graph.VertexID, []float64) {}
func (xorAlg) MSGGen(_ *template.Context, src, dst graph.VertexID, w float64, srcAttr, msg []float64) bool {
	h := uint64(src)<<32 ^ uint64(dst) ^ math.Float64bits(w)
	for _, v := range srcAttr[:min(len(srcAttr), xorSlots)] {
		h = h*0x9E3779B97F4A7C15 ^ math.Float64bits(v)
	}
	for i := range msg[:min(len(msg), xorSlots)] {
		msg[i] = math.Float64frombits(h + uint64(i))
	}
	return src%3 != 0
}
func (xorAlg) MergeIdentity(msg []float64) { clear(msg) }
func (xorAlg) MSGMerge(acc, msg []float64) {
	for i := range acc[:min(len(acc), xorSlots)] {
		acc[i] = math.Float64frombits(math.Float64bits(acc[i]) ^ math.Float64bits(msg[i]))
	}
}
func (xorAlg) MSGApply(*template.Context, graph.VertexID, []float64, []float64, bool) bool {
	return false
}
func (xorAlg) Hints() template.Hints { return template.Hints{OpsPerEdge: 1, OpsPerVertex: 1} }

// genSeed is a fuzz input holding a Gen block of eb and vb and the
// topology it names: the block, then eb's triplets from the first triplet
// boundary past the block's end.
func genSeed(eb *edgeBlock, vb *vertexBlock, msgW int) []byte {
	first := (int(layGen(int64(len(vb.IDs)), int64(vb.Stride), int64(msgW)).end) + tripletBytes - 1) / tripletBytes
	data := make([]byte, (first+len(eb.Triplets))*tripletBytes)
	if _, err := encodeGenBlockWire(data, data, first, eb, vb, msgW, false); err != nil {
		panic(err)
	}
	return data
}

// runHostileGen computes a Gen block the decoder accepted, with data as
// its topology, on a daemon whose scratch has seen a larger block. If the
// oracle decoder's triplets name a row outside the block, the compute must
// fail with the error naming the lowest such triplet; otherwise it must
// succeed with the per-triplet result. Either way it must not panic.
func runHostileGen(t *testing.T, data []byte) {
	t.Helper()
	seg := append([]byte(nil), data...)
	b, err := decodeGenBlock(data, data, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	d := hostileDaemon(b.attrW, b.msgW, len(data))
	d.topo = data
	alg := d.cfg.alg
	_, err = d.computeGen(seg)
	if refusedAtCap(t, d, err, b.attrW, b.msgW) {
		return
	}

	// The oracle's size check counts the deleted cost word.
	eb, vb, msgW, _, resultOff, oerr := decodeGenBlockOracle(append(oracleGenBytes(data, data), make([]byte, 8)...), &oracleScratch{})
	if oerr != nil {
		t.Fatalf("oracle decoder rejects a block the decoder accepted: %v", oerr)
	}
	nV := len(vb.IDs)
	for i, tr := range eb.Triplets {
		if uint32(tr.SrcRow) >= uint32(nV) || uint32(tr.DstRow) >= uint32(nV) {
			want := fmt.Sprintf("gxplug: triplet %d names rows %d/%d of a %d-vertex block", i, tr.SrcRow, tr.DstRow, nV)
			if err == nil || err.Error() != want {
				t.Fatalf("block with bad rows: error %v, want %q", err, want)
			}
			return
		}
	}
	if err != nil {
		t.Fatalf("block with every row in range: %v", err)
	}
	wantAcc, wantRecv := make([]float64, nV*msgW), make([]bool, nV)
	var msg []float64
	if len(eb.Triplets) > 0 { // then nV > 0, and the segment bounds msgW
		msg = make([]float64, msgW)
	}
	for _, tr := range eb.Triplets {
		if alg.MSGGen(nil, tr.Src, tr.Dst, tr.W, vb.Row(int(tr.SrcRow)), msg) {
			alg.MSGMerge(wantAcc[int(tr.DstRow)*msgW:(int(tr.DstRow)+1)*msgW], msg)
			wantRecv[tr.DstRow] = true
		}
	}
	gotAcc, gotRecv := make([]float64, nV*msgW), make([]bool, nV)
	readGenResultIntoOracle(append(oracleGenBytes(seg, data), make([]byte, 8)...), resultOff, gotAcc, gotRecv)
	if !bitsEq(gotAcc, wantAcc) || !sameFlags(gotRecv, wantRecv) {
		t.Fatal("computed Gen result differs from the per-triplet reference")
	}
	l := layGen(int64(nV), int64(vb.Stride), int64(msgW))
	if !bytes.Equal(seg[:l.acc], data[:l.acc]) || !bytes.Equal(seg[l.end:], data[l.end:]) {
		t.Fatal("computing the Gen block wrote outside its result area")
	}
}

// hostileDaemon is a daemon over xorAlg at a block header's widths whose
// scratch has seen a larger block. Each width is capped at the block's
// byte length n: only a block of no rows can claim a wider one, since
// its layout bounds no width by its bytes, and no daemon runs an
// algorithm that wide (its kernel's identity row alone would hold that
// many values). The daemon must refuse such a block (refusedAtCap).
func hostileDaemon(attrW, msgW, n int) *daemonState {
	alg := xorAlg{min(attrW, n), min(msgW, n)}
	dev := device.New(device.Xeon20())
	dev.Init()
	d := &daemonState{cfg: daemonConfig{dev: dev, alg: alg, ctx: &template.Context{}}, dec: *dirtyScratch()}
	d.gen.init(alg, d.cfg.ctx)
	return d
}

// refusedAtCap reports whether d's algorithm was capped below a block's
// widths, and if so holds the compute's error to the daemon's refusal of
// a foreign width.
func refusedAtCap(t *testing.T, d *daemonState, err error, attrW, msgW int) bool {
	t.Helper()
	if d.cfg.alg.AttrWidth() == attrW && d.cfg.alg.MsgWidth() == msgW {
		return false
	}
	if err == nil || !strings.Contains(err.Error(), "wide (attribute/message), the algorithm's are") {
		t.Fatalf("%d/%d-wide block on a %d/%d-wide algorithm: error %v, want a width refusal",
			attrW, msgW, d.cfg.alg.AttrWidth(), d.cfg.alg.MsgWidth(), err)
	}
	return true
}

// runHostileApply computes an Apply block the decoder accepted. xorAlg's
// MSGApply changes nothing and reports no change, so the segment must
// come back as it went in, but for a changed section of zeros.
func runHostileApply(t *testing.T, data []byte) {
	t.Helper()
	seg := bytes.Clone(data)
	b, err := decodeApplyBlock(data, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	d := hostileDaemon(b.attrW, b.msgW, len(data))
	_, err = d.computeApply(seg)
	if refusedAtCap(t, d, err, b.attrW, b.msgW) {
		return
	}
	if err != nil {
		t.Fatalf("apply block the decoder accepted: %v", err)
	}
	want := bytes.Clone(data)
	clear(want[b.at.changed:b.at.end])
	if !bytes.Equal(seg, want) {
		t.Fatal("computed Apply block differs from the block with no vertex changed")
	}
}

// runHostileMerge computes a Merge block the decoder accepted and holds
// the segment to the per-row MSGMerge reference written over section a.
func runHostileMerge(t *testing.T, data []byte) {
	t.Helper()
	seg := bytes.Clone(data)
	m, err := decodeMergeBlock(data, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	d := hostileDaemon(1, m.msgW, len(data))
	_, err = d.computeMerge(seg)
	if refusedAtCap(t, d, err, 1, m.msgW) {
		return
	}
	if err != nil {
		t.Fatalf("merge block the decoder accepted: %v", err)
	}
	for r := 0; r < len(m.a)/m.msgW; r++ {
		xorAlg{}.MSGMerge(m.a[r*m.msgW:(r+1)*m.msgW], m.b[r*m.msgW:(r+1)*m.msgW])
	}
	want := bytes.Clone(data)
	le.Put(want[m.at.a:m.at.b], m.a)
	if !bytes.Equal(seg, want) {
		t.Fatal("computed Merge block differs from the per-row reference")
	}
}
