package engine

import (
	"math"
	"testing"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
)

// This white-box suite asserts that the per-destination fold over dense
// message buffers is observationally identical to the map-based routing
// it replaced: same merged inbox contents (bitwise), same per-pair
// exchange volumes, same final attributes — across BSP and GAS superstep
// shapes, edge-cut and vertex-cut partitionings, and random graphs.

// bspTestSpec and gasTestSpec are minimal engine models (the graphx and
// powergraph packages cannot be imported here without a cycle).
func bspTestSpec() Spec {
	return Spec{
		Name: "bsp-test", Model: BSP, NativeRate: 1e8,
		SuperstepOverhead: time.Millisecond, BoundaryFixed: time.Microsecond,
		BoundaryBandwidth: 1e9, MsgByteFactor: 2.5,
		Partition: func(g *graph.Graph, m int) *graph.Partitioning { return graph.EdgeCutByHash(g, m) },
	}
}

func gasTestSpec() Spec {
	return Spec{
		Name: "gas-test", Model: GAS, NativeRate: 1e9,
		SuperstepOverhead: 10 * time.Microsecond, BoundaryFixed: time.Microsecond,
		BoundaryBandwidth: 1e10, MsgByteFactor: 1.0,
		Partition: func(g *graph.Graph, m int) *graph.Partitioning { return graph.GreedyVertexCut(g, m) },
	}
}

// mapRoute is the legacy map-based routing path, preserved here as the
// reference implementation: per-node vertex-keyed inbox maps, merged
// across senders in node order, one message and one volume increment at
// a time.
func mapRoute(r *runner, results []*gxplug.GenResult) ([]map[graph.VertexID][]float64, [][]int64) {
	inbox := make([]map[graph.VertexID][]float64, r.cfg.Nodes)
	for j := range inbox {
		inbox[j] = make(map[graph.VertexID][]float64)
	}
	vol := zeroVol(r.cfg.Nodes)
	msgBytes := int64(float64(8*r.mw+4) * r.cfg.Spec.MsgByteFactor)
	for j, res := range results {
		for o, out := range res.To {
			if o == j {
				continue
			}
			for _, row := range out.Touched() {
				id := r.part.Parts[o].Masters[row]
				acc, ok := inbox[o][id]
				if !ok {
					acc = make([]float64, r.mw)
					r.alg.MergeIdentity(acc)
					inbox[o][id] = acc
				}
				r.alg.MSGMerge(acc, out.Row(row))
				vol[j][o] += msgBytes
			}
		}
	}
	return inbox, vol
}

// checkRouting routes results through the per-destination fold and the
// map reference and asserts bitwise-equal inboxes and equal volume
// matrices. It returns the dense inbox for the caller to continue the
// superstep.
func checkRouting(t *testing.T, r *runner, results []*gxplug.GenResult, vol [][]int64) []*gxplug.MsgBuf {
	t.Helper()
	inbox := r.nextInbox()
	before := make([][]int64, len(vol))
	for j := range vol {
		before[j] = append([]int64(nil), vol[j]...)
	}
	if err := r.routeRemote(results, inbox, vol); err != nil {
		t.Fatal(err)
	}
	refInbox, refVol := mapRoute(r, results)
	for j := range vol {
		for o := range vol[j] {
			if got, want := vol[j][o]-before[j][o], refVol[j][o]; got != want {
				t.Fatalf("vol[%d][%d] = %d, map reference %d", j, o, got, want)
			}
		}
	}
	for o := 0; o < r.cfg.Nodes; o++ {
		if inbox[o].Len() != len(refInbox[o]) {
			t.Fatalf("node %d: dense inbox %d rows, map %d", o, inbox[o].Len(), len(refInbox[o]))
		}
		for id, msg := range refInbox[o] {
			row := inbox[o].Row(r.part.MasterRow[id])
			for k := range msg {
				if math.Float64bits(row[k]) != math.Float64bits(msg[k]) {
					t.Fatalf("node %d vertex %d slot %d: dense %v, map %v", o, id, k, row[k], msg[k])
				}
			}
		}
		// The reference's rows laid out densely must reproduce the whole
		// accumulator, identity rows included.
		conv := gxplug.NewMsgBuf(r.alg, len(r.part.Parts[o].Masters))
		for id, msg := range refInbox[o] {
			conv.Merge(r.part.MasterRow[id], msg)
		}
		for i, v := range inbox[o].Acc() {
			if math.Float64bits(conv.Acc()[i]) != math.Float64bits(v) {
				t.Fatalf("node %d acc[%d]: dense %v, converted map %v", o, i, conv.Acc()[i], v)
			}
		}
	}
	return inbox
}

func routingRunner(t *testing.T, spec Spec, g *graph.Graph, nodes int, alg template.Algorithm) *runner {
	t.Helper()
	p, err := resolve(Config{Spec: spec, Nodes: nodes, Graph: g, Alg: alg})
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(p)
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDenseRoutingMatchesMapReference drives BSP and GAS supersteps on
// random graphs, checking every routed superstep against the map-based
// reference, then the final attributes against the sequential oracle.
func TestDenseRoutingMatchesMapReference(t *testing.T) {
	graphs := []struct {
		name string
		mk   func() (*graph.Graph, error)
	}{
		{"rmat", func() (*graph.Graph, error) {
			return gen.RMAT(gen.RMATConfig{NumVertices: 400, NumEdges: 3000, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
		}},
		{"er", func() (*graph.Graph, error) {
			return gen.ER(gen.ERConfig{NumVertices: 300, NumEdges: 2400, Seed: 6})
		}},
	}
	for _, gc := range graphs {
		g, err := gc.mk()
		if err != nil {
			t.Fatal(err)
		}
		srcs := algos.DefaultSources(g.NumVertices())
		algsUnderTest := []struct {
			name string
			mk   func() template.Algorithm
		}{
			{"PageRank", func() template.Algorithm { return algos.NewPageRank() }},
			{"SSSP", func() template.Algorithm { return algos.NewSSSPBF(srcs) }},
		}
		for _, ac := range algsUnderTest {
			t.Run(gc.name+"/"+ac.name+"/BSP", func(t *testing.T) {
				checkBSP(t, g, ac.mk)
			})
			t.Run(gc.name+"/"+ac.name+"/GAS", func(t *testing.T) {
				checkGAS(t, g, ac.mk)
			})
		}
	}
}

// checkBSP mirrors iterateBSP with a routing check in the middle of every
// superstep, then compares against a clean engine run and the oracle.
func checkBSP(t *testing.T, g *graph.Graph, mk func() template.Algorithm) {
	const supersteps = 6
	r := routingRunner(t, bspTestSpec(), g, 4, mk())
	for iter := 0; iter < supersteps; iter++ {
		r.ctx.Iteration = iter
		results, err := r.genPhase()
		if err != nil {
			t.Fatal(err)
		}
		vol := r.resetVol()
		inbox := checkRouting(t, r, results, vol)
		changed, mirrorUpdates, err := r.mergeApplyPhase(results, inbox)
		if err != nil {
			t.Fatal(err)
		}
		r.distributeMirrors(mirrorUpdates, vol)
		r.syncPhase(vol)
		if !changed {
			break
		}
	}
	want, err := Run(Config{Spec: bspTestSpec(), Nodes: 4, Graph: g, Alg: mk(), MaxIter: supersteps})
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, r.attrs, want.Attrs)
}

// checkGAS mirrors iterateGAS — gather → apply → scatter with the carry —
// checking every routed scatter.
func checkGAS(t *testing.T, g *graph.Graph, mk func() template.Algorithm) {
	const rounds = 6
	r := routingRunner(t, gasTestSpec(), g, 4, mk())
	var carry *gasCarry
	for iter := 0; iter < rounds; iter++ {
		r.ctx.Iteration = iter
		vol := r.resetVol()
		if carry == nil {
			results, err := r.genPhase()
			if err != nil {
				t.Fatal(err)
			}
			carry = &gasCarry{results: results, inbox: checkRouting(t, r, results, vol)}
		}
		changed, mirrorUpdates, err := r.mergeApplyPhase(carry.results, carry.inbox)
		if err != nil {
			t.Fatal(err)
		}
		r.distributeMirrors(mirrorUpdates, vol)
		carry = nil
		if changed {
			results, err := r.genPhase()
			if err != nil {
				t.Fatal(err)
			}
			carry = &gasCarry{results: results, inbox: checkRouting(t, r, results, vol)}
		}
		r.syncPhase(vol)
		if !changed {
			break
		}
	}
	want, err := Run(Config{Spec: gasTestSpec(), Nodes: 4, Graph: g, Alg: mk(), MaxIter: rounds})
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, r.attrs, want.Attrs)
}

func assertBitEqual(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("attr lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("attrs[%d] = %v, want %v (bitwise)", i, got[i], want[i])
		}
	}
}
