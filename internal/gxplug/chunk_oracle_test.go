package gxplug

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/device"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// chunkOracle is the per-triplet chunk kernel the SrcRow-run walk
// replaced, verbatim apart from the name and the one-method MSGGen call:
// every triplet looks up its source's row and generates its own message.
// It is the oracle TestGenChunkMatchesOracle holds chunk to; nothing
// outside the tests runs it.
func (k *genKernel) chunkOracle(c int) {
	alg, ctx, eb, vb, msgW := k.alg, k.ctx, k.eb, k.vb, k.msgW
	nV := len(vb.IDs)
	// Capped windows: whatever rows a block names, a chunk cannot reach
	// into another chunk's partials.
	acc := k.partAcc[c*(nV+1)*msgW : (c+1)*(nV+1)*msgW : (c+1)*(nV+1)*msgW]
	recv := k.partRecv[c*nV : (c+1)*nV : (c+1)*nV]
	msgBuf := acc[nV*msgW:]
	for r := 0; r < nV; r++ {
		alg.MergeIdentity(acc[r*msgW : (r+1)*msgW])
		recv[r] = false
	}
	lo, hi := c*genChunk, min((c+1)*genChunk, len(eb.Triplets))
	for i := lo; i < hi; i++ {
		t := &eb.Triplets[i]
		if alg.MSGGen(ctx, t.Src, t.Dst, t.W, vb.Row(int(t.SrcRow)), msgBuf) {
			row := int(t.DstRow)
			alg.MSGMerge(acc[row*msgW:(row+1)*msgW], msgBuf)
			recv[row] = true
		}
	}
}

// randomGenBlock builds a source-grouped Gen block over nV vertices, as
// buildBlocks cuts them from the edge table: runs of one SrcRow, of
// random length up to maxRun, until nT triplets. Attribute values are
// drawn from a palette that makes every built-in produce both messages
// and refusals (0 is a peeled k-core vertex, +Inf an unreached one).
func randomGenBlock(rng *rand.Rand, nV, nT, maxRun, stride int) (*graph.EdgeBlock, *graph.VertexBlock) {
	vb := &graph.VertexBlock{IDs: make([]graph.VertexID, nV), Stride: stride, Attrs: make([]float64, nV*stride)}
	for i := range vb.IDs {
		vb.IDs[i] = graph.VertexID(1000 + i)
	}
	palette := []float64{0, 1, 2, 7, math.Inf(1), 0.125, 3.5}
	for i := range vb.Attrs {
		vb.Attrs[i] = palette[rng.Intn(len(palette))]
	}
	eb := &graph.EdgeBlock{Triplets: make([]graph.Triplet, 0, nT)}
	for len(eb.Triplets) < nT {
		srcRow := int32(rng.Intn(nV))
		for n := min(1+rng.Intn(maxRun), nT-len(eb.Triplets)); n > 0; n-- {
			dstRow := int32(rng.Intn(nV))
			eb.Triplets = append(eb.Triplets, graph.Triplet{
				Src: vb.IDs[srcRow], Dst: vb.IDs[dstRow], W: float64(1 + rng.Intn(9)),
				SrcRow: srcRow, DstRow: dstRow,
			})
		}
	}
	return eb, vb
}

// TestGenChunkMatchesOracle launches the Gen kernel through
// Device.Launch — on the host helpers, so under the race detector it also
// covers the one slab concurrent chunks share — over random
// source-grouped blocks, and compares every chunk's partial accumulator
// and received flags, bit for bit, with the per-triplet kernel it
// replaced. launch folds the partials in chunk-index order with code this
// comparison does not touch. Block shapes: empty, a single short chunk,
// and several chunks with runs long enough that a chunk boundary falls
// inside one.
func TestGenChunkMatchesOracle(t *testing.T) {
	ctx := &template.Context{
		NumVertices: 5000,
		OutDeg:      func(v graph.VertexID) int { return int(v) % 4 }, // 0: PageRank refuses
		InDeg:       func(v graph.VertexID) int { return int(v) % 3 },
	}
	srcs := []graph.VertexID{1, 2, 3}
	algsUnderTest := []struct {
		name string
		alg  template.Algorithm
	}{
		{"pagerank", algos.NewPageRank()},
		{"cc", algos.NewCC()},
		{"lp", algos.NewLP()},
		{"bfs", algos.NewKHopBFS(srcs, 5)},
		{"kcore", algos.NewKCore(3)},
		{"sssp", algos.NewSSSPBF(srcs)},
	}
	shapes := []struct {
		name           string
		nV, nT, maxRun int
		splitRun       bool // some chunk boundary must fall inside a run
	}{
		{"empty", 40, 0, 1, false},
		{"one-chunk", 60, 700, 12, false},
		{"singleton-runs", 300, 3 * genChunk, 1, false},
		{"long-runs", 300, 3*genChunk + 517, 900, true},
	}
	for _, ac := range algsUnderTest {
		for _, sh := range shapes {
			t.Run(ac.name+"/"+sh.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(ac.name)*131 + sh.nT)))
				for trial := 0; trial < 3; trial++ {
					eb, vb := randomGenBlock(rng, sh.nV, sh.nT, sh.maxRun, ac.alg.AttrWidth())
					if sh.splitRun {
						split := false
						for b := genChunk; b < len(eb.Triplets); b += genChunk {
							split = split || eb.Triplets[b-1].SrcRow == eb.Triplets[b].SrcRow
						}
						if !split {
							t.Fatal("no chunk boundary falls inside a run")
						}
					}
					checkChunks(t, ac.alg, ctx, eb, vb)
				}
			})
		}
	}
}

// checkChunks runs one block through a daemon's kernel and through the
// oracle and compares the chunk partials.
func checkChunks(t *testing.T, alg template.Algorithm, ctx *template.Context, eb *graph.EdgeBlock, vb *graph.VertexBlock) {
	t.Helper()
	msgW, nV := alg.MsgWidth(), len(vb.IDs)
	dev := device.New(device.Xeon20())
	dev.Init()
	got := new(genKernel)
	got.init(alg, ctx)
	if _, err := got.launch(dev, eb, vb, msgW, 0, 0); err != nil {
		t.Fatal(err)
	}

	want := &genKernel{alg: alg, ctx: ctx, eb: eb, vb: vb, msgW: msgW, nChunks: got.nChunks}
	want.partAcc = make([]float64, want.nChunks*(nV+1)*msgW)
	want.partRecv = make([]bool, want.nChunks*nV)
	for c := 0; c < want.nChunks; c++ {
		want.chunkOracle(c)
		// The row after a chunk's nV accumulator rows is its message
		// scratch, whose final contents are unspecified.
		lo, hi := c*(nV+1)*msgW, (c*(nV+1)+nV)*msgW
		if !bitsEq(got.partAcc[lo:hi], want.partAcc[lo:hi]) {
			t.Fatalf("chunk %d partial accumulator %v, oracle %v", c, got.partAcc[lo:hi], want.partAcc[lo:hi])
		}
		if !slices.Equal(got.partRecv[c*nV:(c+1)*nV], want.partRecv[c*nV:(c+1)*nV]) {
			t.Fatalf("chunk %d received flags differ from the oracle's", c)
		}
	}
}
