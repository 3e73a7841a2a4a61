package gxplug

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gxplug/internal/graph"
)

func TestGenBlockRoundTrip(t *testing.T) {
	eb := &graph.EdgeBlock{Triplets: []graph.Triplet{
		{Src: 1, Dst: 2, W: 1.5, SrcRow: 0, DstRow: 1},
		{Src: 1, Dst: 3, W: 2.5, SrcRow: 0, DstRow: 2},
	}}
	vb := &graph.VertexBlock{
		IDs: []graph.VertexID{1, 2, 3}, Stride: 2,
		Attrs: []float64{1, 2, 3, 4, 5, 6},
	}
	seg := make([]byte, genBlockSize(2, 3, 2, 1))
	payload, err := encodeGenBlock(seg, eb, vb, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	eb2, vb2, mw, resident, resultOff, err := decodeGenBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if mw != 1 || resultOff != payload || resident {
		t.Fatalf("mw=%d resultOff=%d payload=%d resident=%v", mw, resultOff, payload, resident)
	}
	if !reflect.DeepEqual(eb, eb2) || !reflect.DeepEqual(vb, vb2) {
		t.Fatal("gen block round trip mismatch")
	}
}

func TestGenBlockTooSmall(t *testing.T) {
	eb := &graph.EdgeBlock{Triplets: make([]graph.Triplet, 10)}
	vb := &graph.VertexBlock{IDs: make([]graph.VertexID, 5), Stride: 1, Attrs: make([]float64, 5)}
	seg := make([]byte, 16)
	if _, err := encodeGenBlock(seg, eb, vb, 1, false); err == nil {
		t.Fatal("undersized segment accepted")
	}
}

func TestGenResultRoundTrip(t *testing.T) {
	seg := make([]byte, genBlockSize(0, 2, 1, 3))
	acc := []float64{1, 2, 3, 4, 5, math.Inf(1)}
	recv := []bool{true, false}
	writeGenResult(seg, 10, acc, recv, 12345)
	acc2, recv2 := make([]float64, 2*3), make([]bool, 2)
	cost := readGenResultInto(seg, 10, acc2, recv2)
	if !reflect.DeepEqual(acc, acc2) || !reflect.DeepEqual(recv, recv2) || cost != 12345 {
		t.Fatalf("result round trip: %v %v %d", acc2, recv2, cost)
	}
}

func TestApplyBlockRoundTrip(t *testing.T) {
	ids := []graph.VertexID{10, 20}
	attrs := []float64{1, 2, 3, 4}
	msgs := []float64{9, 8}
	recv := []bool{true, false}
	seg := make([]byte, applyBlockSize(2, 2, 1))
	if _, err := encodeApplyBlock(seg, ids, attrs, 2, msgs, 1, recv); err != nil {
		t.Fatal(err)
	}
	ids2, attrs2, aw, msgs2, mw, recv2, resultOff, err := decodeApplyBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if aw != 2 || mw != 1 {
		t.Fatalf("widths %d/%d", aw, mw)
	}
	if !reflect.DeepEqual(ids, ids2) || !reflect.DeepEqual(attrs, attrs2) ||
		!reflect.DeepEqual(msgs, msgs2) || !reflect.DeepEqual(recv, recv2) {
		t.Fatal("apply block round trip mismatch")
	}
	// Write results, read them back.
	newAttrs := []float64{10, 20, 30, 40}
	changed := []bool{false, true}
	writeApplyResult(seg, 4*4+2*4, newAttrs, resultOff, changed, 777)
	gotAttrs, gotChanged := make([]float64, 2*2), make([]bool, 2)
	cost := readApplyResultInto(seg, 2, 2, 1, gotAttrs, gotChanged)
	if !reflect.DeepEqual(gotAttrs, newAttrs) || !reflect.DeepEqual(gotChanged, changed) || cost != 777 {
		t.Fatalf("apply result round trip: %v %v %d", gotAttrs, gotChanged, cost)
	}
}

func TestMergeBlockRoundTrip(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	seg := make([]byte, mergeBlockSize(2, 2))
	if _, err := encodeMergeBlock(seg, a, b, 2); err != nil {
		t.Fatal(err)
	}
	a2, b2, mw, _, err := decodeMergeBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if mw != 2 || !reflect.DeepEqual(a, a2) || !reflect.DeepEqual(b, b2) {
		t.Fatal("merge block round trip mismatch")
	}
	merged := []float64{6, 8, 10, 12}
	writeMergeResult(seg, merged, 55)
	got := make([]float64, 2*2)
	cost := readMergeResultInto(seg, got)
	if !reflect.DeepEqual(got, merged) || cost != 55 {
		t.Fatalf("merge result: %v %d", got, cost)
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
	if _, _, _, _, _, err := decodeGenBlock(seg, &blockScratch{}); err == nil {
		t.Fatal("wrong kind accepted by gen decode")
	}
	if _, _, _, _, _, _, _, err := decodeApplyBlock(seg, &blockScratch{}); err == nil {
		t.Fatal("wrong kind accepted by apply decode")
	}
	if _, _, _, _, err := decodeMergeBlock(seg, &blockScratch{}); err == nil {
		t.Fatal("wrong kind accepted by merge decode")
	}
}

// Property: random gen blocks round-trip exactly.
func TestGenBlockRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nT := rng.Intn(50)
		nV := rng.Intn(30) + 1
		aw := rng.Intn(4) + 1
		mw := rng.Intn(4) + 1
		eb := &graph.EdgeBlock{Triplets: make([]graph.Triplet, nT)}
		for i := range eb.Triplets {
			eb.Triplets[i] = graph.Triplet{
				Src: graph.VertexID(rng.Uint32() % 1000), Dst: graph.VertexID(rng.Uint32() % 1000),
				SrcRow: int32(rng.Intn(nV)), DstRow: int32(rng.Intn(nV)),
				W: rng.Float64() * 100,
			}
		}
		vb := &graph.VertexBlock{IDs: make([]graph.VertexID, nV), Stride: aw, Attrs: make([]float64, nV*aw)}
		for i := range vb.IDs {
			vb.IDs[i] = graph.VertexID(rng.Uint32() % 1000)
		}
		for i := range vb.Attrs {
			vb.Attrs[i] = rng.NormFloat64()
		}
		seg := make([]byte, genBlockSize(nT, nV, aw, mw))
		if _, err := encodeGenBlock(seg, eb, vb, mw, seed%2 == 0); err != nil {
			return false
		}
		eb2, vb2, mw2, resident, _, err := decodeGenBlock(seg, &blockScratch{})
		if err != nil || mw2 != mw || resident != (seed%2 == 0) {
			return false
		}
		if nT == 0 {
			eb.Triplets = eb2.Triplets // an empty array decodes to an empty view, nil or not
		}
		return len(eb2.Triplets) == nT && reflect.DeepEqual(eb, eb2) && reflect.DeepEqual(vb, vb2)
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
