package gxplug

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/cluster"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// The Gen block as a Go value, and the codec and planner that copied it
// field by field: the Triplet-slab plan, the five-cursor-calls-per-triplet
// encoder and the decoder that read every triplet back into a second slab.
// A Gen block is bytes end to end now; these are kept verbatim (apart from
// names, and the planner's slabs living on a holder of their own) as the
// oracles the wire path is held to. Nothing outside the tests runs them.

// triplet is an edge together with the row indices of its endpoints in
// the block's vertex rows.
type triplet struct {
	Src, Dst graph.VertexID
	W        float64
	// SrcRow/DstRow index into the paired vertex block's attribute rows.
	SrcRow, DstRow int32
}

// edgeBlock is a batch of triplets shipped to a daemon.
type edgeBlock struct {
	Triplets []triplet
}

// vertexBlock carries the vertices an edge block references, with their
// attributes.
type vertexBlock struct {
	IDs    []graph.VertexID
	Stride int
	Attrs  []float64 // len = len(IDs)*Stride
}

// Row returns the attribute row of block-local vertex i.
func (b *vertexBlock) Row(i int) []float64 {
	return b.Attrs[i*b.Stride : (i+1)*b.Stride]
}

// The signed cursor calls the oracle codec made per row index.
func (c *cursor) i32(v int32)  { c.u32(uint32(v)) }
func (c *cursor) rdI32() int32 { return int32(c.rdU32()) }

// oracleScratch is the oracle decoder's target.
type oracleScratch struct {
	eb edgeBlock
	vb vertexBlock
}

// encodeGenBlockOracle writes an edge block plus its paired vertex block
// into seg and returns the number of payload bytes written (excluding the
// reserved result area). resident marks the topology as already held by
// the daemon from the previous iteration, so only attribute bytes move
// across the device link.
func encodeGenBlockOracle(seg []byte, eb *edgeBlock, vb *vertexBlock, msgW int, resident bool) (int, error) {
	need := genBlockSize(len(eb.Triplets), len(vb.IDs), vb.Stride, msgW)
	if need > len(seg) {
		return 0, fmt.Errorf("gxplug: gen block needs %d bytes, segment has %d", need, len(seg))
	}
	c := &cursor{buf: seg}
	c.u32(blockKindGen)
	c.u32(uint32(len(eb.Triplets)))
	c.u32(uint32(len(vb.IDs)))
	c.u32(uint32(vb.Stride))
	c.u32(uint32(msgW))
	if resident {
		c.u32(1)
	} else {
		c.u32(0)
	}
	for _, t := range eb.Triplets {
		c.u32(uint32(t.Src))
		c.u32(uint32(t.Dst))
		c.i32(t.SrcRow)
		c.i32(t.DstRow)
		c.f64(t.W)
	}
	for _, id := range vb.IDs {
		c.u32(uint32(id))
	}
	for _, a := range vb.Attrs {
		c.f64(a)
	}
	return c.off, nil
}

// decodeGenBlockOracle reads the agent's payload back out of a segment
// into sc. sc grows only after the header's geometry is known to be
// plausible and to fit the segment, so a lying header cannot size an
// allocation.
func decodeGenBlockOracle(seg []byte, sc *oracleScratch) (eb *edgeBlock, vb *vertexBlock, msgW int, resident bool, resultOff int, err error) {
	if len(seg) < 6*4 {
		return nil, nil, 0, false, 0, fmt.Errorf("gxplug: gen block header truncated (%d bytes)", len(seg))
	}
	c := &cursor{buf: seg}
	if kind := c.rdU32(); kind != blockKindGen {
		return nil, nil, 0, false, 0, fmt.Errorf("gxplug: segment kind %#x, want gen block", kind)
	}
	nT := int(c.rdU32())
	nV := int(c.rdU32())
	attrW := int(c.rdU32())
	msgW = int(c.rdU32())
	resident = c.rdU32() != 0
	if !dimsOK(nT, nV, attrW, msgW) {
		return nil, nil, 0, false, 0, fmt.Errorf("gxplug: implausible gen block geometry %d/%d/%d/%d", nT, nV, attrW, msgW)
	}
	if genBlockSize64(int64(nT), int64(nV), int64(attrW), int64(msgW)) > int64(len(seg)) {
		return nil, nil, 0, false, 0, fmt.Errorf("gxplug: truncated gen block")
	}
	eb, vb = &sc.eb, &sc.vb
	for i := range grow(&eb.Triplets, nT) {
		eb.Triplets[i] = triplet{
			Src:    graph.VertexID(c.rdU32()),
			Dst:    graph.VertexID(c.rdU32()),
			SrcRow: c.rdI32(),
			DstRow: c.rdI32(),
			W:      c.rdF64(),
		}
	}
	vb.Stride = attrW
	for i := range grow(&vb.IDs, nV) {
		vb.IDs[i] = graph.VertexID(c.rdU32())
	}
	for i := range grow(&vb.Attrs, nV*attrW) {
		vb.Attrs[i] = c.rdF64()
	}
	return eb, vb, msgW, resident, c.off, nil
}

// wireTriplets writes eb's triplets in wire form, as buildBlocks plans
// them.
func wireTriplets(eb *edgeBlock) []byte {
	b := make([]byte, len(eb.Triplets)*tripletBytes)
	for i, t := range eb.Triplets {
		putTriplet(b[i*tripletBytes:], t.Src, t.Dst, t.SrcRow, t.DstRow, t.W)
	}
	return b
}

// encodeGenBlockWire encodes eb and vb through the wire path: the planned
// triplet section, then the attribute rows fillBlock writes.
func encodeGenBlockWire(seg []byte, eb *edgeBlock, vb *vertexBlock, msgW int, resident bool) (int, error) {
	attrSec, payload, err := encodeGenBlock(seg, wireTriplets(eb), vb.IDs, vb.Stride, msgW, resident)
	if err == nil {
		putF64s(attrSec, vb.Attrs)
	}
	return payload, err
}

// tripletsOf reads a wire-form triplet section back into values.
func tripletsOf(b []byte) []triplet {
	c := &cursor{buf: b}
	out := make([]triplet, len(b)/tripletBytes)
	for i := range out {
		out[i] = triplet{Src: graph.VertexID(c.rdU32()), Dst: graph.VertexID(c.rdU32()), SrcRow: c.rdI32(), DstRow: c.rdI32(), W: c.rdF64()}
	}
	return out
}

// oraclePlan is one block of the Triplet-slab plan: its triplets, the
// vertices they reference, room for those vertices' attributes and each
// vertex's row in the agent's vertex table (-1 where this node holds no
// copy: a remote destination), each a window of the planner's slab of
// that kind.
type oraclePlan struct {
	eb   edgeBlock
	vb   vertexBlock
	rows []int32
}

// oraclePlanner holds the Triplet-slab plan of one agent's tables.
type oraclePlanner struct {
	a          *Agent
	blocks     []oraclePlan
	blockTrips []triplet
	blockIDs   []graph.VertexID
	blockRows  []int32
	blockAttrs []float64
	blockIdx   []int32
	vEnds      []int
}

func newOraclePlanner(a *Agent) *oraclePlanner {
	return &oraclePlanner{a: a, blockIdx: make([]int32, len(a.parts.Owner))}
}

// buildBlocks cuts the chosen rows' edges into paired vertex/edge blocks
// of at most blockEdges triplets, overwriting the previous plan: the
// blocks are consecutive windows of the triplet, id and attribute slabs.
// Attribute content is filled at pipeline download time (fillBlock), not
// here; rows of vertices this node holds no copy of stay zero.
func (o *oraclePlanner) buildBlocks(rows []int, blockEdges int) []oraclePlan {
	a := o.a
	// blockIdx[v] is 1 + the id-slab position of v's entry in the block
	// being cut — anything at or below the block's first position is an
	// older block's entry. Entries of the previous plan are forgotten here.
	idx := o.blockIdx
	for _, id := range o.blockIDs {
		idx[id] = 0
	}
	d := 0
	for _, row := range rows {
		s, e := a.mt.EdgeRange(row)
		d += e - s
	}
	// slices.Grow rather than grow: a frontier that widens every superstep
	// regrows the slab every superstep, so the growth has to be amortized.
	trips := slices.Grow(o.blockTrips[:0], d)
	ids, vtRows, vEnds := o.blockIDs[:0], o.blockRows[:0], o.vEnds[:0]
	vLo := 0
	local := func(id graph.VertexID) int32 {
		if p := int(idx[id]); p > vLo {
			return int32(p - 1 - vLo)
		}
		ids = append(ids, id)
		idx[id] = int32(len(ids))
		vtRow := int32(-1)
		if r, ok := a.vt.Lookup(id); ok {
			vtRow = int32(r)
		}
		vtRows = append(vtRows, vtRow)
		return int32(len(ids) - 1 - vLo)
	}
	for _, row := range rows {
		s, e := a.mt.EdgeRange(row)
		for i := s; i < e; i++ {
			edge := a.et.At(i)
			srcRow := local(edge.Src)
			trips = append(trips, triplet{
				Src: edge.Src, Dst: edge.Dst, W: edge.Weight,
				SrcRow: srcRow, DstRow: local(edge.Dst),
			})
			if len(trips)%blockEdges == 0 {
				vEnds = append(vEnds, len(ids))
				vLo = len(ids)
			}
		}
	}
	if len(ids) > vLo {
		vEnds = append(vEnds, len(ids))
	}
	o.blockTrips, o.blockIDs, o.blockRows, o.vEnds = trips, ids, vtRows, vEnds

	aw := a.alg.AttrWidth()
	attrs := grow(&o.blockAttrs, len(ids)*aw)
	clear(attrs)
	out := o.blocks[:0]
	vLo = 0
	for i, vHi := range vEnds {
		out = append(out, oraclePlan{
			eb:   edgeBlock{Triplets: trips[i*blockEdges : min((i+1)*blockEdges, len(trips))]},
			vb:   vertexBlock{IDs: ids[vLo:vHi], Stride: aw, Attrs: attrs[vLo*aw : vHi*aw]},
			rows: vtRows[vLo:vHi],
		})
		vLo = vHi
	}
	o.blocks = out
	return out
}

// encode is the encoding half of the Triplet-slab fillBlock: copy the
// table rows into the vertex block, encode. The rows are already fresh.
func (o *oraclePlanner) encode(seg []byte, bp *oraclePlan, reuseTopo bool) (int, error) {
	aw := o.a.alg.AttrWidth()
	for i, r := range bp.rows {
		if r >= 0 {
			copy(bp.vb.Attrs[i*aw:(i+1)*aw], o.a.vt.Row(int(r)))
		}
	}
	return encodeGenBlockOracle(seg, &bp.eb, &bp.vb, o.a.alg.MsgWidth(), reuseTopo)
}

// junk fills b with a nonzero pattern, so that a byte an encoder should
// have written and did not shows.
func junk(b []byte) {
	for i := range b {
		b[i] = byte(0xA5 ^ i)
	}
}

// TestGenBlockBytesMatchOracle holds the wire path to the codec it
// replaced, byte for byte: over the random-plan matrix of
// TestBuildBlocksCutsAndPairs (several plans per agent, each overwriting
// the last), every block fillBlock writes is, up to the payload end, the
// block the Triplet-slab plan and encoder write for the same rows — in a
// fresh plan, and again in reuse-topology rounds, where the plan stays and
// only the vertex table's values move.
func TestGenBlockBytesMatchOracle(t *testing.T) {
	blocks := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ER(gen.ERConfig{NumVertices: 2 + rng.Intn(30), NumEdges: int64(rng.Intn(120)), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var alg template.Algorithm = algos.NewPageRank()
		if seed%2 == 1 {
			alg = algos.NewLP() // a wider message: a larger reserved result area
		}
		part := graph.EdgeCutByHash(g, 2)
		ctx := testCtx(g)
		a := NewAgent(cluster.New(2, cluster.DatacenterNet()).Node(1), part, alg, ctx, newFakeUpper(g, alg, ctx), fastOpts())
		o := newOraclePlanner(a)
		aw := alg.AttrWidth()

		for round := 0; round < 3; round++ {
			var rows []int
			for r := 0; r < a.vt.Len(); r++ {
				if rng.Intn(4) > 0 {
					rows = append(rows, r)
				}
			}
			blockEdges := 1 + rng.Intn(7)
			plan := a.buildBlocks(rows, blockEdges)
			want := o.buildBlocks(rows, blockEdges)
			if len(plan) != len(want) {
				t.Fatalf("seed %d round %d: %d blocks, oracle plans %d", seed, round, len(plan), len(want))
			}
			for reuse := 0; reuse < 3; reuse++ {
				// The table moves on between supersteps; the plan does not.
				for i := range a.vt.Attrs() {
					a.vt.Attrs()[i] = float64(rng.Intn(1000)) / 8
				}
				for bi := range plan {
					bp, op := &plan[bi], &want[bi]
					nT := len(bp.trips) / tripletBytes
					if nT != len(op.eb.Triplets) {
						t.Fatalf("seed %d round %d block %d: %d triplets, oracle %d", seed, round, bi, nT, len(op.eb.Triplets))
					}
					size := genBlockSize(nT, len(bp.ids), aw, alg.MsgWidth()) + 16
					got, exp := make([]byte, size), make([]byte, size)
					junk(got)
					junk(exp)
					_, geo, err := a.fillBlock(got, bp, reuse > 0)
					if err != nil {
						t.Fatal(err)
					}
					payload, err := o.encode(exp, op, reuse > 0)
					if err != nil {
						t.Fatal(err)
					}
					if geo != [2]int{len(op.vb.IDs), payload} {
						t.Fatalf("seed %d round %d block %d: geometry %v, oracle %d vertices, payload %d", seed, round, bi, geo, len(op.vb.IDs), payload)
					}
					if !bytes.Equal(got[:payload], exp[:payload]) {
						t.Fatalf("seed %d round %d reuse %d block %d: segment bytes differ from the oracle encoder's", seed, round, reuse, bi)
					}
					blocks++
				}
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no blocks compared")
	}
}
