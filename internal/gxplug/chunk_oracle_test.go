package gxplug

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/device"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// oracleKernel is the Gen launch as it was before the kernel read its
// triplets in place: the decoded edge and vertex blocks of the oracle
// decoder, and the chunk partials.
type oracleKernel struct {
	alg      template.Algorithm
	ctx      *template.Context
	eb       *edgeBlock
	vb       *vertexBlock
	msgW     int
	partAcc  []float64
	partRecv []bool
	nChunks  int
}

// chunkOracle is the per-triplet chunk kernel the SrcRow-run walk
// replaced, verbatim apart from the name, the receiver and the one-method
// MSGGen call: every triplet looks up its source's row and generates its
// own message, from triplets decoded out of the segment. It is the oracle
// TestGenChunkMatchesOracle holds chunk to; nothing outside the tests runs
// it.
func (k *oracleKernel) chunkOracle(c int) {
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
func randomGenBlock(rng *rand.Rand, nV, nT, maxRun, stride int) (*edgeBlock, *vertexBlock) {
	vb := &vertexBlock{IDs: make([]graph.VertexID, nV), Stride: stride, Attrs: make([]float64, nV*stride)}
	for i := range vb.IDs {
		vb.IDs[i] = graph.VertexID(1000 + i)
	}
	palette := []float64{0, 1, 2, 7, math.Inf(1), 0.125, 3.5}
	for i := range vb.Attrs {
		vb.Attrs[i] = palette[rng.Intn(len(palette))]
	}
	eb := &edgeBlock{Triplets: make([]triplet, 0, nT)}
	for len(eb.Triplets) < nT {
		srcRow := int32(rng.Intn(nV))
		for n := min(1+rng.Intn(maxRun), nT-len(eb.Triplets)); n > 0; n-- {
			dstRow := int32(rng.Intn(nV))
			eb.Triplets = append(eb.Triplets, triplet{
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
// replaced. The kernel reads the triplets in place from the topology an
// encoded block names; the oracle runs over the triplets the oracle
// decoder copies out of the same bytes, laid out as the oracle encoder
// lays them out. launch folds the partials in chunk-index order with
// code this comparison does not touch. Block shapes: empty, a single short
// chunk, and several chunks with runs long enough that a chunk boundary
// falls inside one.
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

// checkChunks encodes one block into a segment, runs it through a
// daemon's kernel and through the oracle, and compares the chunk partials.
func checkChunks(t *testing.T, alg template.Algorithm, ctx *template.Context, eb *edgeBlock, vb *vertexBlock) {
	t.Helper()
	msgW, nV := alg.MsgWidth(), len(vb.IDs)
	seg, topo := genSegment(t, eb, vb, msgW)
	dev := device.New(device.Xeon20())
	dev.Init()
	got := new(genKernel)
	got.init(alg, ctx)
	b, err := decodeGenBlock(seg, topo, &blockScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.launch(dev, b, 0, 0); err != nil {
		t.Fatal(err)
	}

	// The oracle's size check counts the deleted cost word.
	oeb, ovb, _, _, _, err := decodeGenBlockOracle(append(oracleGenBytes(seg, topo), make([]byte, 8)...), &oracleScratch{})
	if err != nil {
		t.Fatal(err)
	}
	want := &oracleKernel{alg: alg, ctx: ctx, eb: oeb, vb: ovb, msgW: msgW, nChunks: got.nChunks}
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

	// launch folded the partials by the declared operator; fold them again
	// with MSGMerge over the same partials.
	acc, recv := slices.Clone(got.acc[:nV*msgW]), slices.Clone(got.recv[:nV])
	if err := got.foldOracle(0); err != nil {
		t.Fatal(err)
	}
	if !bitsEq(acc, got.acc[:nV*msgW]) || !slices.Equal(recv, got.recv[:nV]) {
		t.Fatalf("folded block %v, oracle %v", acc, got.acc[:nV*msgW])
	}
}

// TestGenKernelNamesLowestBadRow: rows outside the block, planted in
// several chunks of one launch, fail it with the error the pre-launch scan
// gave — the lowest such triplet, its two rows as signed numbers — however
// the chunks were scheduled.
func TestGenKernelNamesLowestBadRow(t *testing.T) {
	alg := algos.NewPageRank()
	ctx := &template.Context{NumVertices: 5000, OutDeg: func(graph.VertexID) int { return 1 }, InDeg: func(graph.VertexID) int { return 1 }}
	dev := device.New(device.Xeon20())
	dev.Init()
	k := new(genKernel)
	k.init(alg, ctx)
	rng := rand.New(rand.NewSource(3))
	const nV = 50
	for _, plant := range []struct {
		at       []int // triplets to corrupt, in this order
		src, dst int32
		want     int
	}{
		{[]int{2*genChunk + 9, genChunk + 700}, 0, nV, genChunk + 700},
		{[]int{genChunk + 3, 2*genChunk + 1}, -1, 0, genChunk + 3},
		{[]int{2*genChunk + 5}, nV + 4, 1, 2*genChunk + 5},
		{[]int{17, 3*genChunk - 1}, 1, -2, 17},
	} {
		eb, vb := randomGenBlock(rng, nV, 3*genChunk, 40, alg.AttrWidth())
		for _, i := range plant.at {
			eb.Triplets[i].SrcRow, eb.Triplets[i].DstRow = plant.src, plant.dst
		}
		seg, topo := genSegment(t, eb, vb, alg.MsgWidth())
		b, err := decodeGenBlock(seg, topo, &blockScratch{})
		if err != nil {
			t.Fatal(err)
		}
		wantErr := fmt.Sprintf("gxplug: triplet %d names rows %d/%d of a %d-vertex block", plant.want, plant.src, plant.dst, nV)
		if _, err := k.launch(dev, b, 0, 0); err == nil || err.Error() != wantErr {
			t.Fatalf("planted at %v: error %v, want %q", plant.at, err, wantErr)
		}
	}
}

// foldDenseOracle is genKernel.fold before it walked the chunks' touched
// lists, verbatim apart from the name: every chunk's partial flags, all nV
// rows of them.
func (k *genKernel) foldDenseOracle(int) error {
	alg, op, msgW, nV := k.alg, k.op, k.blk.msgW, k.blk.nV
	acc := grow(&k.acc, nV*msgW)
	recv := grow(&k.recv, nV)
	for r := 0; r < nV; r++ {
		alg.MergeIdentity(acc[r*msgW : (r+1)*msgW])
		recv[r] = false
	}
	for c := 0; c < k.nChunks; c++ {
		partAcc := k.partAcc[c*(nV+1)*msgW:]
		partRecv := k.partRecv[c*nV:]
		for r := 0; r < nV; r++ {
			if partRecv[r] {
				mergeRow(op, alg, acc[r*msgW:(r+1)*msgW], partAcc[r*msgW:(r+1)*msgW])
				recv[r] = true
			}
		}
	}
	return nil
}

// panicOn is an algorithm whose MSGGen panics, while armed, on one source.
type panicOn struct {
	template.Algorithm
	src   graph.VertexID
	armed bool
}

func (p *panicOn) MSGGen(ctx *template.Context, src, dst graph.VertexID, w float64, srcAttr, msg []float64) bool {
	if p.armed && src == p.src {
		panic(fmt.Sprintf("MSGGen on marked source %d", src))
	}
	return p.Algorithm.MSGGen(ctx, src, dst, w, srcAttr, msg)
}

// TestGenKernelReusesPartials runs one kernel through a sequence of
// launches — the partials shrink within their capacity, grow back into
// it and then past it, and launches fail on a planted bad row and on a
// panicking MSGGen — and holds every good launch to a fresh kernel: the
// same partials for every chunk, the same block result, and the result
// the dense fold it replaced (foldDenseOracle) makes of those partials. So the rows a launch leaves
// written, whether it succeeded or not, are back at identity before the
// next one reads them. Each block has a row that every chunk merges into
// and one that none does.
func TestGenKernelReusesPartials(t *testing.T) {
	ctx := &template.Context{
		NumVertices: 5000,
		OutDeg:      func(v graph.VertexID) int { return 1 + int(v)%3 },
		InDeg:       func(v graph.VertexID) int { return 1 + int(v)%2 },
	}
	dev := device.New(device.Xeon20())
	dev.Init()
	type step struct {
		name   string
		nV, nT int
		bad    int  // triplet given a row outside the block, or -1
		panics bool // MSGGen panics on the source of triplet 3*genChunk/2
	}
	steps := []step{
		{"first", 300, 3*genChunk + 517, -1, false},
		{"shrink", 40, genChunk + 100, -1, false},
		{"grow-within", 250, 3 * genChunk, -1, false},
		{"bad-row", 200, 3 * genChunk, genChunk + 600, false},
		{"after-bad-row", 120, 2*genChunk + 9, -1, false},
		{"panic", 260, 3 * genChunk, -1, true},
		{"after-panic", 260, 3*genChunk - 1, -1, false},
		{"grow-past", 700, 5*genChunk + 33, -1, false},
	}
	for _, inner := range []template.Algorithm{algos.NewPageRank(), algos.NewCC(), algos.NewLP()} {
		t.Run(inner.Name(), func(t *testing.T) {
			alg := &panicOn{Algorithm: inner}
			k := new(genKernel)
			k.init(alg, ctx)
			rng := rand.New(rand.NewSource(int64(inner.MsgWidth())))
			var slab *float64 // the partials' backing array after "first"
			for _, st := range steps {
				eb, vb := randomGenBlock(rng, st.nV, st.nT, 30, inner.AttrWidth())
				for i := range eb.Triplets {
					tr := &eb.Triplets[i]
					if i%genChunk == 0 {
						tr.DstRow = 0 // every chunk merges into row 0
					} else if tr.DstRow == int32(st.nV-1) {
						tr.DstRow = int32(st.nV - 2) // none into the last row
					}
					tr.Dst = vb.IDs[tr.DstRow]
				}
				if st.bad >= 0 {
					eb.Triplets[st.bad].DstRow = int32(st.nV + 3)
				}
				msgW := inner.MsgWidth()
				seg, topo := genSegment(t, eb, vb, msgW)
				b, err := decodeGenBlock(seg, topo, &blockScratch{})
				if err != nil {
					t.Fatal(err)
				}
				if st.panics {
					alg.src, alg.armed = eb.Triplets[3*genChunk/2].Src, true
				}
				_, err = k.launch(dev, b, 0, 0)
				alg.armed = false
				switch {
				case st.bad >= 0:
					want := fmt.Sprintf("gxplug: triplet %d names rows %d/%d of a %d-vertex block", st.bad, eb.Triplets[st.bad].SrcRow, st.nV+3, st.nV)
					if err == nil || err.Error() != want {
						t.Fatalf("%s: error %v, want %q", st.name, err, want)
					}
					continue
				case st.panics:
					if !strings.Contains(fmt.Sprint(err), "MSGGen on marked source") {
						t.Fatalf("%s: error %v, want MSGGen's panic", st.name, err)
					}
					continue
				case err != nil:
					t.Fatalf("%s: %v", st.name, err)
				}
				switch st.name {
				case "first":
					slab = &k.partAcc[:1][0]
				case "shrink", "grow-within":
					if &k.partAcc[:1][0] != slab {
						t.Fatalf("%s: the partials were reallocated, not reused", st.name)
					}
				}

				fresh := new(genKernel)
				fresh.init(inner, ctx)
				if _, err := fresh.launch(dev, b, 0, 0); err != nil {
					t.Fatal(err)
				}
				nV := st.nV
				for c := 0; c < fresh.nChunks; c++ {
					lo, hi := c*(nV+1)*msgW, (c*(nV+1)+nV)*msgW
					if !bitsEq(k.partAcc[lo:hi], fresh.partAcc[lo:hi]) || !slices.Equal(k.partRecv[c*nV:(c+1)*nV], fresh.partRecv[c*nV:(c+1)*nV]) {
						t.Fatalf("%s: chunk %d partials differ from a fresh kernel's", st.name, c)
					}
					if !fresh.partRecv[c*nV] {
						t.Fatalf("%s: chunk %d does not merge into row 0", st.name, c)
					}
				}
				acc, recv := slices.Clone(k.acc[:nV*msgW]), slices.Clone(k.recv[:nV])
				if recv[nV-1] {
					t.Fatalf("%s: a chunk merged into the last row", st.name)
				}
				if !bitsEq(acc, fresh.acc[:nV*msgW]) || !slices.Equal(recv, fresh.recv[:nV]) {
					t.Fatalf("%s: block result differs from a fresh kernel's", st.name)
				}
				if err := k.foldDenseOracle(0); err != nil {
					t.Fatal(err)
				}
				if !bitsEq(acc, k.acc[:nV*msgW]) || !slices.Equal(recv, k.recv[:nV]) {
					t.Fatalf("%s: block result differs from the dense fold's", st.name)
				}
			}
		})
	}
}
