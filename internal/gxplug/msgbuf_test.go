package gxplug

import (
	"math"
	"math/rand"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// mapOutbox is the plain-map reference the dense Outbox is checked
// against: merged messages keyed by destination, plus first-touch order.
type mapOutbox struct {
	acc   map[graph.VertexID][]float64
	order []graph.VertexID
}

func (m *mapOutbox) add(alg template.Algorithm, id graph.VertexID, msg []float64) {
	acc, ok := m.acc[id]
	if !ok {
		acc = make([]float64, len(msg))
		alg.MergeIdentity(acc)
		if m.acc == nil {
			m.acc = make(map[graph.VertexID][]float64)
		}
		m.acc[id] = acc
		m.order = append(m.order, id)
	}
	alg.MSGMerge(acc, msg)
}

// check asserts ob holds exactly the reference's destinations, visited
// in first-touch order with bit-identical merged messages.
func (m *mapOutbox) check(t *testing.T, ob *Outbox) {
	t.Helper()
	if ob.Len() != len(m.acc) {
		t.Fatalf("outbox holds %d destinations, reference %d", ob.Len(), len(m.acc))
	}
	i := 0
	ob.Each(func(id graph.VertexID, msg []float64) {
		if id != m.order[i] {
			t.Fatalf("visit %d is id %d, want first-touch order id %d", i, id, m.order[i])
		}
		if !bitsEq(msg, m.acc[id]) {
			t.Fatalf("id %d: outbox %v, reference %v", id, msg, m.acc[id])
		}
		i++
	})
}

// The dense outbox must accumulate exactly what a plain map keyed by
// destination would — same merged messages bit for bit, visited in
// first-touch order — across Reset reuse: the dense range is an
// optimization, never a semantic.
func TestOutboxMatchesMapReference(t *testing.T) {
	alg := algos.NewSSSPBF([]graph.VertexID{0, 1})
	mw := alg.MsgWidth()
	rng := rand.New(rand.NewSource(11))

	ob := NewOutbox(alg, 100, mw)
	for round := 0; round < 3; round++ {
		ob.Reset(alg)
		var ref mapOutbox
		for i := 0; i < 500; i++ {
			id := graph.VertexID(rng.Intn(100))
			msg := make([]float64, mw)
			for k := range msg {
				msg[k] = rng.Float64() * 10
			}
			ob.Add(alg, id, msg)
			ref.add(alg, id, msg)
		}
		ref.check(t, ob)
	}
}

// Reset must restore merge identities in touched rows — stale values
// leaking across supersteps would silently corrupt merges.
func TestOutboxResetRestoresIdentity(t *testing.T) {
	alg := algos.NewCC() // min-merge, identity +Inf
	ob := NewOutbox(alg, 5, 1)
	ob.Add(alg, 2, []float64{7})
	ob.Reset(alg)
	if ob.Len() != 0 {
		t.Fatalf("len %d after reset", ob.Len())
	}
	ob.Add(alg, 2, []float64{9})
	ob.Each(func(id graph.VertexID, msg []float64) {
		if id != 2 || msg[0] != 9 {
			t.Fatalf("got id=%d msg=%v after reset+add, want 2/[9]", id, msg)
		}
	})
}

// An inbox built through the legacy map converter must match one built by
// dense merges, and reject messages for vertices outside the master set.
func TestInboxFromMapMatchesDense(t *testing.T) {
	alg := algos.NewPageRank()
	masters := []graph.VertexID{3, 7, 20, 41}
	incoming := map[graph.VertexID][]float64{
		7:  {0.25},
		41: {0.5},
	}
	fromMap, err := InboxFromMap(alg, masters, 1, incoming)
	if err != nil {
		t.Fatal(err)
	}
	dense := NewInbox(alg, len(masters), 1)
	dense.Merge(alg, 1, []float64{0.25})
	dense.Merge(alg, 3, []float64{0.5})
	if fromMap.Len() != dense.Len() {
		t.Fatalf("len %d vs %d", fromMap.Len(), dense.Len())
	}
	for i, v := range dense.Acc() {
		if math.Float64bits(fromMap.Acc()[i]) != math.Float64bits(v) {
			t.Fatalf("acc[%d]: %v vs %v", i, fromMap.Acc()[i], v)
		}
	}
	if _, err := InboxFromMap(alg, masters, 1, map[graph.VertexID][]float64{8: {1}}); err == nil {
		t.Fatal("foreign vertex accepted")
	}
}

// GenResult.Reset must clear local accumulators back to the merge
// identity so a reused buffer behaves exactly like a fresh one.
func TestGenResultReset(t *testing.T) {
	alg := algos.NewCC()
	res := NewGenResult(alg, 3, 10, 1)
	res.LocalAcc[1] = 4
	res.LocalRecv[1] = true
	res.Remote.Add(alg, 9, []float64{2})
	res.Entities = 17
	res.Reset(alg)
	if res.Entities != 0 || res.Remote.Len() != 0 {
		t.Fatalf("reset left entities=%d remote=%d", res.Entities, res.Remote.Len())
	}
	for mi, r := range res.LocalRecv {
		if r {
			t.Fatalf("recv[%d] still set", mi)
		}
	}
	if !math.IsInf(res.LocalAcc[1], 1) {
		t.Fatalf("acc[1] = %v, want merge identity +Inf", res.LocalAcc[1])
	}
}

// A warm outbox must not allocate: Reset, Add and Each reuse the dense
// accumulator and the touched-id list — the "allocates nothing after
// warm-up" routing contract.
func TestOutboxNoAllocAfterWarmup(t *testing.T) {
	alg := algos.NewPageRank()
	mw := alg.MsgWidth()
	ob := NewOutbox(alg, 32, mw)
	msg := make([]float64, mw)
	var sink graph.VertexID
	cycle := func() {
		ob.Reset(alg)
		for i := 0; i < 32; i++ {
			ob.Add(alg, graph.VertexID(i), msg)
		}
		ob.Each(func(id graph.VertexID, _ []float64) { sink = id })
	}
	cycle() // warm the touched-id list
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm Reset/Add/Each cycle allocates %.1f times, want 0", allocs)
	}
	_ = sink
}
