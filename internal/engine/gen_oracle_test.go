package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
)

// nativeGenOracle is the per-edge nativeGen the source-run walk replaced,
// verbatim apart from the name, the one-method MSGGen call, the fold and
// a fresh result of its own (nativeGen's one is the result under test):
// every edge tests the cone and the frontier, slices its source's row and
// generates its own message, which oracleAdd merges with MSGMerge itself.
// It is the oracle TestNativeGenMatchesOracle holds nativeGen to; nothing
// outside the tests runs it.
func (r *runner) nativeGenOracle(j int) *gxplug.GenResult {
	part := r.part.Parts[j]
	res := gxplug.NewGenResult(r.alg, r.part, j)
	genAll := r.alg.Hints().GenAll
	msgBuf := r.natMsg[j]
	// Incremental replay: only destinations in the cone can receive a
	// result differing from the memo, so only their messages are needed.
	cone := r.inc.coneFilter()
	edges := 0
	for _, e := range part.Edges {
		if cone != nil && !cone[e.Dst] {
			continue
		}
		if !genAll && !r.active[e.Src] {
			continue
		}
		edges++
		src := e.Src
		srcAttr := r.attrs[int(src)*r.aw : (int(src)+1)*r.aw]
		if r.alg.MSGGen(r.ctx, src, e.Dst, e.Weight, srcAttr, msgBuf) {
			r.oracleAdd(res, e.Dst, msgBuf)
		}
	}
	res.Entities = edges
	r.chargeNative(j, genOps(float64(edges), r.alg.Hints()))
	return res
}

// oracleAdd is GenResult.Add with the fold left to MSGMerge, whatever
// merge operator the algorithm declares.
func (r *runner) oracleAdd(res *gxplug.GenResult, id graph.VertexID, msg []float64) {
	b, row := res.To[r.part.Owner[id]], r.part.MasterRow[id]
	b.Touch(row)
	r.alg.MSGMerge(b.Row(row), msg)
}

// nativeGenPushOracle is the source-run walk replayed supersteps ran
// before they gathered into the cone, verbatim apart from the name and a
// fresh result of its own: it pushes along the edge table and tests every
// edge's destination against the cone, and a SourceOnly run generates at
// its first edge into the cone and folds into the rest with intoCone. It
// is the oracle TestNativeGenMatchesOracle holds gatherCone to; nothing
// outside the tests runs it.
func (r *runner) nativeGenPushOracle(j int) *gxplug.GenResult {
	part := r.part.Parts[j]
	res := gxplug.NewGenResult(r.alg, r.part, j)
	hints := r.alg.Hints()
	f := slabFold{res: res, slot: r.part.Slot, op: hints.Merge}
	f.acc, f.recv = res.Slabs()
	if r.mw != 1 {
		f.op = template.MergeCustom // Add dispatches on the op itself
	}
	msg := r.natMsg[j]
	// Incremental replay: only destinations in the cone can receive a
	// result differing from the memo, so only their messages are needed.
	cone := r.inc.coneFilter()
	edges, start := 0, int32(0)
	for _, end := range part.RunEnds {
		run := part.Edges[start:end]
		start = end
		src := run[0].Src
		if !hints.GenAll && !r.active[src] {
			continue
		}
		srcAttr := r.attrs[int(src)*r.aw : (int(src)+1)*r.aw]
		switch {
		case !hints.SourceOnly:
			for i := range run {
				e := &run[i]
				if cone != nil && !cone[e.Dst] {
					continue
				}
				edges++
				if r.alg.MSGGen(r.ctx, src, e.Dst, e.Weight, srcAttr, msg) {
					f.into(run[i:i+1], msg)
				}
			}
		case cone == nil:
			edges += len(run)
			if r.alg.MSGGen(r.ctx, src, run[0].Dst, run[0].Weight, srcAttr, msg) {
				f.into(run, msg)
			}
		default:
			i := 0
			for i < len(run) && !cone[run[i].Dst] {
				i++
			}
			if i == len(run) {
				continue
			}
			run = run[i:]
			if r.alg.MSGGen(r.ctx, src, run[0].Dst, run[0].Weight, srcAttr, msg) {
				edges += f.intoCone(run, msg, cone)
				continue
			}
			for k := range run {
				if cone[run[k].Dst] {
					edges++
				}
			}
		}
	}
	res.Entities = edges
	r.chargeNative(j, genOps(float64(edges), hints))
	return res
}

// intoCone folds msg into the row of every destination of es that is in
// cone, in order, and returns how many it folded.
func (f *slabFold) intoCone(es []graph.Edge, msg []float64, cone []bool) int {
	acc, recv, slot := f.acc, f.recv, f.slot
	n := 0
	switch f.op {
	case template.MergeSum:
		v := msg[0]
		for i := range es {
			dst := es[i].Dst
			if !cone[dst] {
				continue
			}
			n++
			s := slot[dst]
			if !recv[s] {
				f.res.Touch(dst)
			}
			acc[s] += v
		}
	case template.MergeMin:
		v := msg[0]
		for i := range es {
			dst := es[i].Dst
			if !cone[dst] {
				continue
			}
			n++
			s := slot[dst]
			if !recv[s] {
				f.res.Touch(dst)
			}
			if v < acc[s] {
				acc[s] = v
			}
		}
	default:
		for i := range es {
			if dst := es[i].Dst; cone[dst] {
				n++
				f.res.Add(dst, msg)
			}
		}
	}
	return n
}

// coneState is the replay state a gen phase sees under cone: the cone,
// its ascending list and the merge signature of r's partitioning.
func coneState(r *runner, cone []bool) *incState {
	var s dirtySeeder
	s.sign(r.part)
	inc := &incState{dirty: cone, cone: make([]bool, len(cone)), sig: &s.sig}
	inc.listCone()
	return inc
}

// randomFlags returns n flags, each set with probability p; exactlyOne
// sets a single random flag instead.
func randomFlags(rng *rand.Rand, n int, p float64, exactlyOne bool) []bool {
	f := make([]bool, n)
	if exactlyOne {
		f[rng.Intn(n)] = true
		return f
	}
	for i := range f {
		f[i] = rng.Float64() < p
	}
	return f
}

// TestNativeGenMatchesOracle compares nativeGen with the per-edge loop
// the source-run walk replaced on both engine shapes (edge-cut BSP as
// graphx, vertex-cut GAS as powergraph), for every built-in algorithm —
// SSSP on the per-edge path, the rest per run — over frontier densities
// {empty, one vertex, ~1 %, ~50 %, full} × cone filters {none, one
// vertex, sparse, dense, every vertex}, from attribute state two
// supersteps into a run; the every-vertex cone must also equal the run
// with no cone at all. One graph leaves most parts without a single
// edge, one runs on a single node (every message in the sender's own
// buffer), one gives every source exactly one edge, and one ends parts
// with the longest run. Per destination buffer the accumulator bits, the
// received flags and the entity count must all be equal. Without a cone
// (push) the first-touch order must be equal too; under one (the gather)
// it must hold the oracle's rows in ascending order, and the gather must
// equal the push walk it replaced, nativeGenPushOracle, the same way.
func TestNativeGenMatchesOracle(t *testing.T) {
	rmat, err := gen.RMAT(gen.RMATConfig{NumVertices: 400, NumEdges: 3000, A: 0.57, B: 0.19, C: 0.19, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// Edges leave three vertices only: under an edge-cut most of the
	// eight parts own no edge at all.
	var hub []graph.Edge
	for i := 0; i < 240; i++ {
		hub = append(hub, graph.Edge{Src: graph.VertexID(i % 3), Dst: graph.VertexID(3 + i%77), Weight: float64(1 + i%5)})
	}
	// Every vertex has exactly one out-edge: every run is one edge long.
	var single []graph.Edge
	for i := 0; i < 300; i++ {
		single = append(single, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((7*i + 3) % 300), Weight: float64(1 + i%4)})
	}
	// Vertex 59, the highest, has the most edges, so its run is the last
	// of every part holding it and ends that part's table.
	var tail []graph.Edge
	for i := 0; i < 200; i++ {
		tail = append(tail, graph.Edge{Src: graph.VertexID(i % 59), Dst: graph.VertexID(13 * i % 60), Weight: float64(1 + i%3)})
	}
	for i := 0; i < 40; i++ {
		tail = append(tail, graph.Edge{Src: 59, Dst: graph.VertexID(i), Weight: float64(1 + i%5)})
	}
	graphs := []struct {
		name  string
		g     *graph.Graph
		nodes int
	}{
		{"rmat", rmat, 4},
		{"hub", graph.MustFromEdges(80, hub), 8},
		{"rmat-one-node", rmat, 1},
		{"single-edge-runs", graph.MustFromEdges(300, single), 4},
		{"tail-run", graph.MustFromEdges(60, tail), 3},
	}
	specs := []struct {
		name string
		spec Spec
	}{{"graphx", bspTestSpec()}, {"powergraph", gasTestSpec()}}
	frontiers := []struct {
		name string
		p    float64
		one  bool
	}{{"empty", 0, false}, {"one", 0, true}, {"1pct", 0.01, false}, {"50pct", 0.5, false}, {"full", 1, false}}
	cones := []struct {
		name string
		p    float64 // < 0: no filter
		one  bool
	}{{"none", -1, false}, {"one", 0, true}, {"sparse", 0.03, false}, {"dense", 0.7, false}, {"all", 1, false}}

	for _, gc := range graphs {
		srcs := algos.DefaultSources(gc.g.NumVertices())
		algsUnderTest := []struct {
			name string
			mk   func() template.Algorithm
		}{
			{"pagerank", func() template.Algorithm { return algos.NewPageRank() }},
			{"cc", func() template.Algorithm { return algos.NewCC() }},
			{"lp", func() template.Algorithm { return algos.NewLP() }},
			{"bfs", func() template.Algorithm { return algos.NewKHopBFS(srcs, 0) }},
			{"kcore", func() template.Algorithm { return algos.NewKCore(3) }},
			{"sssp", func() template.Algorithm { return algos.NewSSSPBF(srcs) }},
		}
		for _, sc := range specs {
			for _, ac := range algsUnderTest {
				t.Run(gc.name+"/"+sc.name+"/"+ac.name, func(t *testing.T) {
					r := routingRunner(t, sc.spec, gc.g, gc.nodes, ac.mk())
					if gc.name == "hub" && sc.name == "graphx" &&
						!slices.ContainsFunc(r.part.Parts, func(p *graph.Partition) bool { return len(p.Edges) == 0 }) {
						t.Fatal("the hub graph was meant to leave a part without edges")
					}
					if gc.name == "single-edge-runs" &&
						slices.ContainsFunc(r.part.Parts, func(p *graph.Partition) bool { return len(p.RunEnds) != len(p.Edges) }) {
						t.Fatal("the single-edge graph was meant to give every run one edge")
					}
					if gc.name == "tail-run" && !slices.ContainsFunc(r.part.Parts, func(p *graph.Partition) bool {
						k := len(p.RunEnds) - 1
						return k > 0 && p.RunEnds[k]-p.RunEnds[k-1] >= 2 && p.Edges[len(p.Edges)-1].Src == 59
					}) {
						t.Fatal("the tail graph was meant to end a part with vertex 59's run")
					}
					// Two supersteps in, attributes are no longer the initial
					// ones: hop counts, peeled vertices, labels and ranks vary.
					for iter := 0; iter < 2; iter++ {
						r.ctx.Iteration = iter
						if _, err := r.iterateBSP(); err != nil {
							t.Fatal(err)
						}
					}
					r.ctx.Iteration = 2
					rng := rand.New(rand.NewSource(77))
					n := gc.g.NumVertices()
					for _, fc := range frontiers {
						for _, cc := range cones {
							copy(r.active, randomFlags(rng, n, fc.p, fc.one))
							r.inc = nil
							same := sameGenResult
							if cc.p >= 0 {
								r.inc = coneState(r, randomFlags(rng, n, cc.p, cc.one))
								same = sameGenResultAscending
							}
							for j := range r.part.Parts {
								got := r.nativeGen(j)
								want := r.nativeGenOracle(j)
								if err := same(got, want); err != nil {
									t.Fatalf("frontier %s, cone %s, node %d: %v", fc.name, cc.name, j, err)
								}
								if cc.p >= 0 {
									if err := same(got, r.nativeGenPushOracle(j)); err != nil {
										t.Fatalf("frontier %s, cone %s, node %d, against the push walk: %v", fc.name, cc.name, j, err)
									}
								}
								if cc.name != "all" {
									continue
								}
								// A cone holding every vertex filters nothing:
								// the no-cone path must equal the oracle too.
								inc := r.inc
								r.inc = nil
								got = r.nativeGen(j)
								r.inc = inc
								if err := sameGenResult(got, want); err != nil {
									t.Fatalf("frontier %s, cone all vs none, node %d: %v", fc.name, j, err)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestNativeGenAllocatesNothing pins nativeGen's steady state at zero heap
// allocations on both engine shapes, on the per-run path (PageRank, CC,
// LP) and the per-edge one (SSSP), pushing without a cone and gathering
// under a sparse one, and for every fold: width-1 sum (PageRank) and min
// (CC), min over four slots (SSSP) and MSGMerge (LP).
// MSGGen writes into the node's one scratch row (or the signature's
// per-source scratch) and neither walk builds a closure. The node's one
// result and its gather scratch are warmed first, and every call reuses
// them.
func TestNativeGenAllocatesNothing(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{NumVertices: 400, NumEdges: 3000, A: 0.57, B: 0.19, C: 0.19, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	srcs := algos.DefaultSources(g.NumVertices())
	for _, sc := range []struct {
		name string
		spec Spec
	}{{"graphx", bspTestSpec()}, {"powergraph", gasTestSpec()}} {
		for _, alg := range []template.Algorithm{algos.NewPageRank(), algos.NewCC(), algos.NewLP(), algos.NewSSSPBF(srcs)} {
			t.Run(sc.name+"/"+alg.Name(), func(t *testing.T) {
				r := routingRunner(t, sc.spec, g, 4, alg)
				for i := range r.active {
					r.active[i] = true
				}
				cone := coneState(r, randomFlags(rand.New(rand.NewSource(5)), g.NumVertices(), 0.03, false))
				for _, inc := range []*incState{nil, cone} {
					r.inc = inc
					for j := range r.part.Parts {
						r.nativeGen(j)
					}
					for j := range r.part.Parts {
						if allocs := testing.AllocsPerRun(20, func() { r.nativeGen(j) }); allocs != 0 {
							t.Errorf("cone %v, node %d: %v allocations per nativeGen, want 0", inc != nil, j, allocs)
						}
					}
				}
			})
		}
	}
}

// TestNativeGenReusesOneBufferPerNode pins one GenResult and one inbox
// per node on the native executor: every gen phase of a run fills the
// same ones, on a BSP spec and on a GAS spec, whose rounds hand a scatter's
// results and inbox to the next round's gather in those same buffers.
func TestNativeGenReusesOneBufferPerNode(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{NumVertices: 400, NumEdges: 3000, A: 0.57, B: 0.19, C: 0.19, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{bspTestSpec(), gasTestSpec()} {
		t.Run(spec.Name, func(t *testing.T) {
			r := routingRunner(t, spec, g, 4, algos.NewPageRank())
			var results []*gxplug.GenResult
			var inbox []*gxplug.MsgBuf
			for iter := 0; iter < 4; iter++ {
				r.ctx.Iteration = iter
				iterate := r.iterateBSP
				if spec.Model == GAS {
					iterate = r.iterateGAS
				}
				if changed, err := iterate(); err != nil || !changed {
					t.Fatalf("superstep %d: changed %v, error %v", iter, changed, err)
				}
				if iter == 0 {
					results, inbox = slices.Clone(r.results), slices.Clone(r.inbox)
					continue
				}
				for j := range results {
					if r.results[j] != results[j] || r.inbox[j] != inbox[j] {
						t.Fatalf("superstep %d, node %d: a second GenResult or inbox", iter, j)
					}
				}
			}
		})
	}
}

// sameGenResult reports the first difference between two results: entity
// count, then per destination the first-touch order, the received flags
// and the whole accumulator, bit for bit.
func sameGenResult(got, want *gxplug.GenResult) error {
	return sameGenResultBy(got, want, slices.Clone[[]int32])
}

// sameGenResultAscending is sameGenResult with the oracle's first-touch
// rows sorted: got must touch the same rows, in ascending order.
func sameGenResultAscending(got, want *gxplug.GenResult) error {
	return sameGenResultBy(got, want, func(rows []int32) []int32 {
		rows = slices.Clone(rows)
		slices.Sort(rows)
		return rows
	})
}

func sameGenResultBy(got, want *gxplug.GenResult, order func([]int32) []int32) error {
	if got.Entities != want.Entities {
		return fmt.Errorf("Entities %d, oracle %d", got.Entities, want.Entities)
	}
	for o := range want.To {
		g, w := got.To[o], want.To[o]
		if rows := order(w.Touched()); !slices.Equal(g.Touched(), rows) {
			return fmt.Errorf("To[%d] first-touch order %v, oracle %v", o, g.Touched(), rows)
		}
		for row := 0; row < w.Rows(); row++ {
			if g.Recv(int32(row)) != w.Recv(int32(row)) {
				return fmt.Errorf("To[%d] recv[%d] = %v, oracle %v", o, row, g.Recv(int32(row)), w.Recv(int32(row)))
			}
		}
		if !attrsBitEqual(g.Acc(), w.Acc()) {
			return fmt.Errorf("To[%d] accumulator %v, oracle %v", o, g.Acc(), w.Acc())
		}
	}
	return nil
}
