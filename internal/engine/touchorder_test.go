package engine

import (
	"math/rand"
	"slices"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
)

// shuffleApply is an algorithm whose MSGApply, at its first call on a
// node in a superstep, first shuffles the first-touch list of the node's
// local accumulator — the buffer nativeApply reads, after nativeMerge has
// folded the inbox into it. Everything else is the wrapped algorithm's.
type shuffleApply struct {
	template.Algorithm
	r        *runner
	rng      []*rand.Rand // per node: nodes apply concurrently
	shuffled []int        // per node: the superstep last shuffled, plus one
}

func (a *shuffleApply) MSGApply(ctx *template.Context, id graph.VertexID, attr, msg []float64, received bool) bool {
	if j := a.r.part.Owner[id]; a.shuffled[j] != ctx.Iteration+1 {
		a.shuffled[j] = ctx.Iteration + 1
		shuffleRows(a.rng[j], a.r.results[j].Local())
	}
	return a.Algorithm.MSGApply(ctx, id, attr, msg, received)
}

// shuffleRows permutes a buffer's first-touch list in place (Touched
// aliases it).
func shuffleRows(rng *rand.Rand, b *gxplug.MsgBuf) {
	rows := b.Touched()
	rng.Shuffle(len(rows), func(i, k int) { rows[i], rows[k] = rows[k], rows[i] })
}

// TestFirstTouchOrderIsUnobservable is why a replayed gen may touch rows
// in ascending vertex order where a push touches them in edge order: with
// every MsgBuf's first-touch list permuted at random before routeRemote
// reads the senders' buffers, before nativeMerge reads the inboxes and
// the local accumulators, and before nativeApply reads the merged local
// accumulators, a run's attributes, active flags, mirror updates,
// exchange volumes and Observer counts are bit-identical to the same run
// unshuffled, superstep by superstep — on an edge-cut and on a vertex-cut
// (which has mirrors), for a width-1 sum, a width-1 min, a four-slot min
// and a custom merge.
func TestFirstTouchOrderIsUnobservable(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{NumVertices: 400, NumEdges: 3000, A: 0.57, B: 0.19, C: 0.19, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	srcs := algos.DefaultSources(g.NumVertices())
	const nodes = 4
	for _, sc := range []struct {
		name string
		spec Spec
	}{{"graphx", bspTestSpec()}, {"powergraph", gasTestSpec()}} {
		for _, mk := range []func() template.Algorithm{
			func() template.Algorithm { return algos.NewPageRank() },
			func() template.Algorithm { return algos.NewCC() },
			func() template.Algorithm { return algos.NewSSSPBF(srcs) },
			func() template.Algorithm { return algos.NewLP() },
		} {
			t.Run(sc.name+"/"+mk().Name(), func(t *testing.T) {
				runners := [2]*runner{}
				for i, shuffle := range []bool{false, true} {
					alg := &shuffleApply{Algorithm: mk(), rng: make([]*rand.Rand, nodes), shuffled: make([]int, nodes)}
					r := routingRunner(t, sc.spec, g, nodes, alg)
					r.cfg.Observer = func(SuperstepInfo) {}
					alg.r = r
					for j := range alg.rng {
						alg.rng[j] = rand.New(rand.NewSource(int64(100 + j)))
						if !shuffle {
							alg.shuffled[j] = -1 // never matches: no shuffling
						}
					}
					runners[i] = r
				}
				rng := rand.New(rand.NewSource(7))
				shuffleAll := func(bufs []*gxplug.MsgBuf) {
					for _, b := range bufs {
						shuffleRows(rng, b)
					}
				}
				for iter := 0; iter < 8; iter++ {
					var changed [2]bool
					var mirrors [2][]graph.VertexID
					var vol [2][][]int64
					for i, r := range runners {
						r.ctx.Iteration = iter
						vol[i] = r.resetVol()
						if err := r.genPhase(); err != nil {
							t.Fatal(err)
						}
						r.nextInbox()
						if i == 1 {
							for _, res := range r.results {
								shuffleAll(res.To)
							}
						}
						if err := r.routeRemote(vol[i]); err != nil {
							t.Fatal(err)
						}
						if i == 1 {
							for _, res := range r.results {
								shuffleAll(res.To)
							}
							shuffleAll(r.inbox)
						}
						changed[i], mirrors[i], err = r.mergeApplyPhase()
						if err != nil {
							t.Fatal(err)
						}
						r.distributeMirrors(mirrors[i], vol[i])
						r.syncPhase(vol[i])
					}
					plain, shuffled := runners[0], runners[1]
					switch {
					case !attrsBitEqual(plain.attrs, shuffled.attrs):
						t.Fatalf("superstep %d: attributes differ", iter)
					case !slices.Equal(plain.active, shuffled.active) || changed[0] != changed[1]:
						t.Fatalf("superstep %d: active flags differ", iter)
					case !slices.Equal(mirrors[0], mirrors[1]):
						t.Fatalf("superstep %d: mirror updates %v, shuffled %v", iter, mirrors[0], mirrors[1])
					case !slices.EqualFunc(vol[0], vol[1], slices.Equal[[]int64]):
						t.Fatalf("superstep %d: volumes %v, shuffled %v", iter, vol[0], vol[1])
					case plain.obsMsgs != shuffled.obsMsgs || plain.obsBytes != shuffled.obsBytes || plain.obsMirrors != shuffled.obsMirrors:
						t.Fatalf("superstep %d: observer counts (%d, %d, %d), shuffled (%d, %d, %d)", iter,
							plain.obsMsgs, plain.obsBytes, plain.obsMirrors, shuffled.obsMsgs, shuffled.obsBytes, shuffled.obsMirrors)
					}
					if !changed[0] {
						break
					}
				}
				if runners[0].obsMsgs == 0 {
					t.Fatal("no message crossed nodes: the routing was not exercised")
				}
				if sc.name == "powergraph" && runners[0].obsMirrors == 0 {
					t.Fatal("no mirror was updated: the vertex-cut was not exercised")
				}
			})
		}
	}
}
