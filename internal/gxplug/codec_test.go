package gxplug

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gxplug/internal/graph"
	"gxplug/internal/le"
)

func TestGenBlockRoundTrip(t *testing.T) {
	eb := &edgeBlock{Triplets: []triplet{
		{Src: 1, Dst: 2, W: 1.5, SrcRow: 0, DstRow: 1},
		{Src: 1, Dst: 3, W: 2.5, SrcRow: 0, DstRow: 2},
	}}
	vb := &vertexBlock{
		IDs: []graph.VertexID{1, 2, 3}, Stride: 2,
		Attrs: []float64{1, 2, 3, 4, 5, 6},
	}
	// The block's two triplets are 3 and 4 of a five-triplet topology.
	seg, topo := make([]byte, layGen(3, 2, 1).end), make([]byte, 5*tripletBytes)
	payload, err := encodeGenBlockWire(seg, topo, 3, eb, vb, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeGenBlock(seg, topo, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if b.msgW != 1 || b.at.acc != int64(payload) || b.resident {
		t.Fatalf("mw=%d result area at %d payload=%d resident=%v", b.msgW, b.at.acc, payload, b.resident)
	}
	if !reflect.DeepEqual(tripletsOf(b.trips), eb.Triplets) || b.nV != 3 || b.attrW != 2 || !reflect.DeepEqual(b.attrs, vb.Attrs) {
		t.Fatal("gen block round trip mismatch")
	}
	if &b.trips[0] != &topo[3*tripletBytes] {
		t.Fatal("the decoded triplets are not the topology's window")
	}
	if _, err := decodeGenBlock(seg, topo[:4*tripletBytes+tripletBytes-1], &blockScratch{}); err == nil ||
		err.Error() != "gxplug: gen block triplets [3, 5) run past a topology of 4" {
		t.Fatalf("window past a four-triplet topology: %v", err)
	}
}

func TestGenBlockTooSmall(t *testing.T) {
	seg := make([]byte, 16)
	if _, err := encodeGenBlock(seg, 0, 10, make([]graph.VertexID, 5), 1, 1, false); err == nil {
		t.Fatal("undersized segment accepted")
	}
}

// The Gen result area as computeGen writes it and drainBlock reads it:
// the oracle codec's bytes up to the block's end, and the values back.
func TestGenResultRoundTrip(t *testing.T) {
	l := layGen(2, 1, 3)
	seg, want := make([]byte, l.end), make([]byte, genBlockSize(0, 2, 1, 3))
	acc := []float64{1, 2, 3, 4, 5, math.Inf(1)}
	recv := []bool{true, false}
	le.Put(seg[l.acc:l.recv], acc)
	putBools(seg[l.recv:l.end], recv)
	// The oracle's header is a word shorter.
	writeGenResultOracle(want, int(l.acc)-4, acc, recv, 12345)
	if !reflect.DeepEqual(seg[l.acc:], want[l.acc-4:l.end-4]) {
		t.Fatal("result area differs from the oracle writer's")
	}
	acc2, recv2 := make([]float64, 2*3), make([]bool, 2)
	le.Get(acc2, seg[l.acc:l.recv])
	for i, f := range seg[l.recv:l.end] {
		recv2[i] = f != 0
	}
	if !reflect.DeepEqual(acc, acc2) || !reflect.DeepEqual(recv, recv2) {
		t.Fatalf("result round trip: %v %v", acc2, recv2)
	}
}

func TestApplyBlockRoundTrip(t *testing.T) {
	ids := []graph.VertexID{10, 20}
	attrs := []float64{1, 2, 3, 4}
	msgs := []float64{9, 8}
	recv := []bool{true, false}
	seg := make([]byte, applyBlockSize(2, 2, 1)) // room for the oracle reader's cost word
	l, err := encodeApplyWire(seg, ids, attrs, 2, msgs, 1, recv)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeApplyBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if b.attrW != 2 || b.msgW != 1 || b.at != l {
		t.Fatalf("widths %d/%d, layout %+v, encoded %+v", b.attrW, b.msgW, b.at, l)
	}
	if !reflect.DeepEqual(ids, b.ids) || !reflect.DeepEqual(attrs, b.attrs) ||
		!reflect.DeepEqual(msgs, b.msgs) || !reflect.DeepEqual(recv, b.recv) {
		t.Fatal("apply block round trip mismatch")
	}
	// Write results as computeApply does, read them back with the oracle.
	newAttrs := []float64{10, 20, 30, 40}
	changed := []bool{false, true}
	le.Put(seg[l.attrs:l.msgs], newAttrs)
	putBools(seg[l.changed:l.end], changed)
	gotAttrs, gotChanged := make([]float64, 2*2), make([]bool, 2)
	readApplyResultIntoOracle(seg, 2, 2, 1, gotAttrs, gotChanged)
	if !reflect.DeepEqual(gotAttrs, newAttrs) || !reflect.DeepEqual(gotChanged, changed) {
		t.Fatalf("apply result round trip: %v %v", gotAttrs, gotChanged)
	}
}

func TestMergeBlockRoundTrip(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	seg := make([]byte, mergeBlockSize(2, 2)) // room for the oracle reader's cost word
	l, err := encodeMergeBlock(seg, a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeMergeBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if m.msgW != 2 || m.at != l || !reflect.DeepEqual(a, m.a) || !reflect.DeepEqual(b, m.b) {
		t.Fatal("merge block round trip mismatch")
	}
	// Write the result as computeMerge does, read it back with the oracle.
	merged := []float64{6, 8, 10, 12}
	le.Put(seg[l.a:l.b], merged)
	got := make([]float64, 2*2)
	readMergeResultIntoOracle(seg, got)
	if !reflect.DeepEqual(got, merged) {
		t.Fatalf("merge result: %v", got)
	}
}

func TestMergeBlockGeometryErrors(t *testing.T) {
	seg := make([]byte, 256)
	if _, err := encodeMergeBlock(seg, []float64{1}, []float64{1, 2}, 1); err == nil {
		t.Fatal("mismatched accs accepted")
	}
	if _, err := encodeMergeBlock(seg, []float64{1, 2, 3}, []float64{1, 2, 3}, 2); err == nil {
		t.Fatal("non-multiple width accepted")
	}
}

func TestDecodeWrongKind(t *testing.T) {
	seg := make([]byte, 256)
	seg[0] = 0xFF
	if _, err := decodeGenBlock(seg, seg, &blockScratch{}); err == nil {
		t.Fatal("wrong kind accepted by gen decode")
	}
	if _, err := decodeApplyBlock(seg, &blockScratch{}); err == nil {
		t.Fatal("wrong kind accepted by apply decode")
	}
	if _, err := decodeMergeBlock(seg, &blockScratch{}); err == nil {
		t.Fatal("wrong kind accepted by merge decode")
	}
}

// Property: random gen blocks round-trip exactly, and the wire path,
// laid out as the oracle encoder lays it out, writes the bytes the oracle
// encoder writes.
func TestGenBlockRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nT := rng.Intn(50)
		nV := rng.Intn(30) + 1
		aw := rng.Intn(4) + 1
		mw := rng.Intn(4) + 1
		eb := &edgeBlock{Triplets: make([]triplet, nT)}
		for i := range eb.Triplets {
			eb.Triplets[i] = triplet{
				Src: graph.VertexID(rng.Uint32() % 1000), Dst: graph.VertexID(rng.Uint32() % 1000),
				SrcRow: int32(rng.Intn(nV)), DstRow: int32(rng.Intn(nV)),
				W: rng.Float64() * 100,
			}
		}
		vb := &vertexBlock{IDs: make([]graph.VertexID, nV), Stride: aw, Attrs: make([]float64, nV*aw)}
		for i := range vb.IDs {
			vb.IDs[i] = graph.VertexID(rng.Uint32() % 1000)
		}
		for i := range vb.Attrs {
			vb.Attrs[i] = rng.NormFloat64()
		}
		first := rng.Intn(8)
		seg, topo := make([]byte, layGen(int64(nV), int64(aw), int64(mw)).end), make([]byte, (first+nT)*tripletBytes)
		payload, err := encodeGenBlockWire(seg, topo, first, eb, vb, mw, seed%2 == 0)
		if err != nil {
			return false
		}
		want := make([]byte, genBlockSize(nT, nV, aw, mw))
		if wantPayload, err := encodeGenBlockOracle(want, eb, vb, mw, seed%2 == 0); err != nil ||
			!reflect.DeepEqual(oracleGenBytes(seg[:payload], topo), want[:wantPayload]) {
			return false
		}
		b, err := decodeGenBlock(seg, topo, &blockScratch{})
		if err != nil || b.msgW != mw || b.resident != (seed%2 == 0) {
			return false
		}
		got := tripletsOf(b.trips)
		if nT == 0 {
			eb.Triplets = got // an empty array decodes to an empty view, nil or not
		}
		return len(got) == nT && reflect.DeepEqual(eb.Triplets, got) && b.nV == nV && b.attrW == aw && reflect.DeepEqual(b.attrs, vb.Attrs)
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
