package gxplug

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gxplug/internal/graph"
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
	seg := make([]byte, layGen(2, 3, 2, 1).end)
	payload, err := encodeGenBlockWire(seg, eb, vb, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeGenBlock(seg, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if b.msgW != 1 || b.at.acc != int64(payload) || b.resident {
		t.Fatalf("mw=%d result area at %d payload=%d resident=%v", b.msgW, b.at.acc, payload, b.resident)
	}
	if !reflect.DeepEqual(tripletsOf(b.trips), eb.Triplets) || b.nV != 3 || b.attrW != 2 || !reflect.DeepEqual(b.attrs, vb.Attrs) {
		t.Fatal("gen block round trip mismatch")
	}
}

func TestGenBlockTooSmall(t *testing.T) {
	seg := make([]byte, 16)
	if _, err := encodeGenBlock(seg, make([]byte, 10*tripletBytes), make([]graph.VertexID, 5), 1, 1, false); err == nil {
		t.Fatal("undersized segment accepted")
	}
}

// The Gen result area as computeGen writes it and drainBlock reads it:
// the oracle codec's bytes up to the block's end, and the values back.
func TestGenResultRoundTrip(t *testing.T) {
	l := layGen(0, 2, 1, 3)
	seg, want := make([]byte, l.end), make([]byte, genBlockSize(0, 2, 1, 3))
	acc := []float64{1, 2, 3, 4, 5, math.Inf(1)}
	recv := []bool{true, false}
	putF64s(seg[l.acc:l.recv], acc)
	putBools(seg[l.recv:l.end], recv)
	writeGenResultOracle(want, int(l.acc), acc, recv, 12345)
	if !reflect.DeepEqual(seg, want[:l.end]) {
		t.Fatal("result area differs from the oracle writer's")
	}
	acc2, recv2 := make([]float64, 2*3), make([]bool, 2)
	getF64s(acc2, seg[l.acc:l.recv])
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
	putF64s(seg[l.attrs:l.msgs], newAttrs)
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
	putF64s(seg[l.a:l.b], merged)
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
	if _, err := decodeGenBlock(seg, &blockScratch{}); err == nil {
		t.Fatal("wrong kind accepted by gen decode")
	}
	if _, err := decodeApplyBlock(seg, &blockScratch{}); err == nil {
		t.Fatal("wrong kind accepted by apply decode")
	}
	if _, err := decodeMergeBlock(seg, &blockScratch{}); err == nil {
		t.Fatal("wrong kind accepted by merge decode")
	}
}

// Property: random gen blocks round-trip exactly, and the wire path
// writes the bytes the oracle encoder writes.
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
		seg := make([]byte, genBlockSize(nT, nV, aw, mw))
		if _, err := encodeGenBlockWire(seg, eb, vb, mw, seed%2 == 0); err != nil {
			return false
		}
		want := make([]byte, len(seg))
		if _, err := encodeGenBlockOracle(want, eb, vb, mw, seed%2 == 0); err != nil || !reflect.DeepEqual(seg, want) {
			return false
		}
		b, err := decodeGenBlock(seg, &blockScratch{})
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

// putF64sLoop and getF64sLoop are putF64s and getF64s before they copied
// a row's memory image, verbatim apart from the names: one value at a time
// through its bits.
func putF64sLoop(dst []byte, vals []float64) {
	dst = dst[:8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func getF64sLoop(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// TestF64CodecMatchesLoop holds putF64s and getF64s to the per-value
// loops byte for byte: random bit patterns mixed with quiet and
// signalling NaNs with payloads, ±0, ±Inf and subnormals, every length
// from 0 to 64 (both sides of f64CopyMin), and the wire bytes at every
// offset 0–7 inside a larger buffer, whose bytes outside the 8n written
// or read must stay as they were.
func TestF64CodecMatchesLoop(t *testing.T) {
	special := []uint64{
		0x7FF8000000000000, 0x7FF8DEADBEEF0001, 0xFFFC000000000123, // quiet NaNs
		0x7FF0000000000001, 0x7FF4000000C0FFEE, 0xFFF0000000000002, // signalling NaNs
		0x0000000000000000, 0x8000000000000000, // ±0
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001, 0x800FFFFFFFFFFFFF, // subnormals
	}
	rng := rand.New(rand.NewSource(49))
	bits := func() uint64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Uint64()
	}
	const pad = 16
	for n := 0; n <= 64; n++ {
		for off := 0; off < 8; off++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = math.Float64frombits(bits())
			}
			got := make([]byte, off+8*n+pad)
			rng.Read(got)
			want := bytes.Clone(got)
			putF64s(got[off:], vals)
			putF64sLoop(want[off:], vals)
			if !bytes.Equal(got, want) {
				t.Fatalf("putF64s, %d values at offset %d: bytes differ from the loop's", n, off)
			}

			// Read them back into a window of a larger row, past which the
			// row's values must stay as they were.
			gotV, wantV := make([]float64, n+2), make([]float64, n+2)
			for i := range gotV {
				gotV[i] = math.Float64frombits(bits())
			}
			copy(wantV, gotV)
			getF64s(gotV[1:n+1], got[off:])
			getF64sLoop(wantV[1:n+1], want[off:])
			for i := range gotV {
				if math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
					t.Fatalf("getF64s, %d values at offset %d: value %d is %#x, the loop's %#x", n, off, i, math.Float64bits(gotV[i]), math.Float64bits(wantV[i]))
				}
			}
			for i, v := range vals {
				if math.Float64bits(gotV[i+1]) != math.Float64bits(v) {
					t.Fatalf("%d values at offset %d: value %d does not round-trip", n, off, i)
				}
			}
		}
	}
}

// BenchmarkF64Codec times putF64s and getF64s against the per-value loop
// by row length, at an odd byte offset as in a segment. It sets
// f64CopyMin. Measured with the cutoff at 1 on a 2-CPU x86-64 host (Go
// 1.24), ns/op copy vs loop: about 9 vs 8 at 1 value, 12 vs 10 at 2, 11 vs
// 13 at 3, 12 vs 22 at 8, 22 vs 135 (put) at 64, 140 vs 1400 at 1024.
func BenchmarkF64Codec(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4, 8, 64, 1024} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i) + 0.5
		}
		buf := make([]byte, 8*n+1)
		for _, c := range []struct {
			name string
			put  func([]byte, []float64)
			get  func([]float64, []byte)
		}{{"codec", putF64s, getF64s}, {"loop", putF64sLoop, getF64sLoop}} {
			b.Run(fmt.Sprintf("put/n=%d/%s", n, c.name), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				for range b.N {
					c.put(buf[1:], vals)
				}
			})
			b.Run(fmt.Sprintf("get/n=%d/%s", n, c.name), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				for range b.N {
					c.get(vals, buf[1:])
				}
			})
		}
	}
}
