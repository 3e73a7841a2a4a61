package gxplug

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// mapBuf is the plain-map reference the dense MsgBuf is checked against:
// merged messages keyed by row, plus first-touch order.
type mapBuf struct {
	acc   map[int32][]float64
	order []int32
}

func (m *mapBuf) touch(alg template.Algorithm, row int32) []float64 {
	acc, ok := m.acc[row]
	if !ok {
		acc = make([]float64, alg.MsgWidth())
		alg.MergeIdentity(acc)
		if m.acc == nil {
			m.acc = make(map[int32][]float64)
		}
		m.acc[row] = acc
		m.order = append(m.order, row)
	}
	return acc
}

func (m *mapBuf) merge(alg template.Algorithm, row int32, msg []float64) {
	alg.MSGMerge(m.touch(alg, row), msg)
}

// check asserts b holds exactly the reference's rows — touched in
// first-touch order with bit-identical merged messages — and the merge
// identity with a clear flag everywhere else.
func (m *mapBuf) check(t *testing.T, alg template.Algorithm, b *MsgBuf) {
	t.Helper()
	if b.Len() != len(m.acc) {
		t.Fatalf("buffer holds %d rows, reference %d", b.Len(), len(m.acc))
	}
	for i, row := range b.Touched() {
		if row != m.order[i] {
			t.Fatalf("touched[%d] is row %d, want first-touch order row %d", i, row, m.order[i])
		}
	}
	identity := make([]float64, alg.MsgWidth())
	alg.MergeIdentity(identity)
	for row := int32(0); int(row) < b.Rows(); row++ {
		want, touched := m.acc[row]
		if !touched {
			want = identity
		}
		if b.Recv(row) != touched {
			t.Fatalf("row %d: recv %v, reference %v", row, b.Recv(row), touched)
		}
		if !bitsEq(b.Row(row), want) {
			t.Fatalf("row %d: buffer %v, reference %v", row, b.Row(row), want)
		}
	}
}

// countingIdentity counts MergeIdentity calls, to pin Reset's cost.
type countingIdentity struct {
	template.Algorithm
	calls int
}

func (c *countingIdentity) MergeIdentity(dst []float64) {
	c.calls++
	c.Algorithm.MergeIdentity(dst)
}

// The dense buffer must accumulate exactly what a plain map keyed by row
// would — same merged messages bit for bit, same first-touch order —
// across Reset reuse: the dense range is an optimization, never a
// semantic. Touch (RequestMerge's touch-without-merge) marks a row and
// leaves its identity value alone.
func TestMsgBufMatchesMapReference(t *testing.T) {
	alg := algos.NewSSSPBF([]graph.VertexID{0, 1})
	mw := alg.MsgWidth()
	rng := rand.New(rand.NewSource(11))

	const rows = 100
	b := NewMsgBuf(alg, rows)
	for round := 0; round < 3; round++ {
		b.Reset()
		var ref mapBuf
		for i := 0; i < 500; i++ {
			row := int32(rng.Intn(rows))
			if rng.Intn(8) == 0 {
				b.Touch(row)
				ref.touch(alg, row)
				continue
			}
			msg := make([]float64, mw)
			for k := range msg {
				msg[k] = rng.Float64() * 10
			}
			b.Merge(row, msg)
			ref.merge(alg, row, msg)
		}
		ref.check(t, alg, b)
	}
}

// Reset must restore merge identities in touched rows — stale values
// leaking across supersteps would silently corrupt merges — and must
// visit only those rows: its cost is O(touched), not O(rows).
func TestMsgBufResetIsPerTouchedRow(t *testing.T) {
	alg := &countingIdentity{Algorithm: algos.NewCC()} // min-merge, identity +Inf
	b := NewMsgBuf(alg, 1000)
	b.Merge(2, []float64{7})
	b.Merge(2, []float64{5})
	b.Touch(900)
	alg.calls = 0
	b.Reset()
	if alg.calls != 2 {
		t.Fatalf("reset of 2 touched rows re-identified %d rows", alg.calls)
	}
	(&mapBuf{}).check(t, alg, b)
	b.Merge(2, []float64{9})
	if got := b.Row(2)[0]; got != 9 {
		t.Fatalf("row 2 = %v after reset+merge, want 9", got)
	}
}

// genResultRef is the per-destination plain-map reference for a
// GenResult: one mapBuf per node, addressed by a vertex's owner and its
// position in the owner's master list (found by search, not through the
// routing index under test).
type genResultRef struct {
	part *graph.Partitioning
	to   []mapBuf
}

func newGenResultRef(part *graph.Partitioning) *genResultRef {
	return &genResultRef{part: part, to: make([]mapBuf, len(part.Parts))}
}

// locate finds id's owner and master row by searching the master lists.
func (g *genResultRef) locate(id graph.VertexID) (owner int, row int32) {
	for o, p := range g.part.Parts {
		mi := sort.Search(len(p.Masters), func(i int) bool { return p.Masters[i] >= id })
		if mi < len(p.Masters) && p.Masters[mi] == id {
			return o, int32(mi)
		}
	}
	panic(fmt.Sprintf("vertex %d mastered nowhere", id))
}

func (g *genResultRef) add(alg template.Algorithm, id graph.VertexID, msg []float64) {
	owner, row := g.locate(id)
	g.to[owner].merge(alg, row, msg)
}

func (g *genResultRef) check(t *testing.T, alg template.Algorithm, res *GenResult) {
	t.Helper()
	for o := range g.to {
		g.to[o].check(t, alg, res.To[o])
	}
}

// A GenResult files every message under its destination's owner, in the
// owner's master row: per destination it must hold exactly what a map
// per node would, and Reset must return every slot to a fresh buffer's
// state.
func TestGenResultAddsPerDestination(t *testing.T) {
	alg := algos.NewSSSPBF([]graph.VertexID{0})
	mw := alg.MsgWidth()
	const numV, nodes, self = 97, 4, 2
	part := graph.EdgeCutByHash(graph.MustFromEdges(numV, nil), nodes)
	rng := rand.New(rand.NewSource(5))

	res := NewGenResult(alg, part, self)
	if res.Local() != res.To[self] {
		t.Fatal("Local is not the sender's own slot")
	}
	for round := 0; round < 3; round++ {
		res.Reset()
		if res.Entities != 0 {
			t.Fatalf("reset left entities=%d", res.Entities)
		}
		ref := newGenResultRef(part)
		for i := 0; i < 400; i++ {
			id := graph.VertexID(rng.Intn(numV))
			msg := make([]float64, mw)
			for k := range msg {
				msg[k] = rng.Float64() * 10
			}
			res.Add(id, msg)
			ref.add(alg, id, msg)
		}
		ref.check(t, alg, res)
		res.Entities = 17
	}
	res.Reset()
	newGenResultRef(part).check(t, alg, res)
}

// A warm result must not allocate: Reset, Add, Touch and walking the
// touched rows reuse the dense accumulators and the touched lists — the
// "allocates nothing after warm-up" message-path contract.
func TestGenResultNoAllocAfterWarmup(t *testing.T) {
	alg := algos.NewPageRank()
	mw := alg.MsgWidth()
	const numV = 32
	part := graph.EdgeCutByHash(graph.MustFromEdges(numV, nil), 3)
	res := NewGenResult(alg, part, 0)
	msg := make([]float64, mw)
	var sink float64
	cycle := func() {
		res.Reset()
		for v := 0; v < numV; v++ {
			res.Add(graph.VertexID(v), msg)
		}
		for _, b := range res.To {
			for _, row := range b.Touched() {
				b.Touch(row)
				sink += b.Row(row)[0]
			}
		}
	}
	cycle() // warm the touched lists
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm Reset/Add/walk cycle allocates %.1f times, want 0", allocs)
	}
	_ = sink
}
