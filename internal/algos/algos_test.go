package algos

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// runTemplate executes an algorithm through the template interface with
// the package's sequential reference driver — the oracle for engine
// implementations and a direct test that the three-API decomposition
// computes the right thing.
func runTemplate(g *graph.Graph, a template.Algorithm) ([]float64, int) {
	return Sequential(g, a)
}

func smallSocial(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 300, NumEdges: 2400, A: 0.57, B: 0.19, C: 0.19, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsInf(a[i], 1) && math.IsInf(b[i], 1) {
			continue
		}
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestPageRankTemplateMatchesReference(t *testing.T) {
	g := smallSocial(t)
	pr := NewPageRank()
	got, gotIters := runTemplate(g, pr)
	want, wantIters := RefPageRank(g, pr.Damping, pr.Tol, 0)
	if !almostEqual(got, want, 1e-12) {
		t.Fatal("template PageRank diverges from reference")
	}
	if gotIters != wantIters {
		t.Fatalf("iterations %d != reference %d", gotIters, wantIters)
	}
	// Ranks are a probability-ish vector: positive, mass near 1.
	var sum float64
	for _, r := range got {
		if r <= 0 {
			t.Fatal("non-positive rank")
		}
		sum += r
	}
	if sum < 0.5 || sum > 1.5 {
		t.Fatalf("rank mass %v far from 1", sum)
	}
}

func TestPageRankDanglingVertices(t *testing.T) {
	// Vertex 2 has no out-edges; vertex 0 has no in-edges.
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	pr := NewPageRank()
	got, _ := runTemplate(g, pr)
	want, _ := RefPageRank(g, pr.Damping, pr.Tol, 0)
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("dangling handling differs: %v vs %v", got, want)
	}
	// A vertex with no in-edges holds exactly the base rank.
	base := (1 - pr.Damping) / 3
	if math.Abs(got[0]-base) > 1e-12 {
		t.Fatalf("source vertex rank %v, want base %v", got[0], base)
	}
}

func TestSSSPTemplateMatchesReference(t *testing.T) {
	g := smallSocial(t)
	srcs := DefaultSources(g.NumVertices())
	alg := NewSSSPBF(srcs)
	got, _ := runTemplate(g, alg)
	want, _ := RefSSSPBF(g, srcs)
	if !almostEqual(got, want, 1e-9) {
		t.Fatal("template SSSP diverges from reference")
	}
}

func TestSSSPHandDistances(t *testing.T) {
	// 0 --1--> 1 --1--> 2, and 0 --5--> 2: shortest 0->2 is 2.
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 0, Dst: 2, Weight: 5}})
	alg := NewSSSPBF([]graph.VertexID{0})
	got, _ := runTemplate(g, alg)
	want := []float64{0, 1, 2}
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("distances %v, want %v", got, want)
	}
}

func TestSSSPUnreachableStaysInf(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	got, _ := runTemplate(g, NewSSSPBF([]graph.VertexID{0}))
	if !math.IsInf(got[2], 1) {
		t.Fatalf("unreachable vertex distance %v, want +Inf", got[2])
	}
}

func TestSSSPMultiSourceSlots(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}})
	alg := NewSSSPBF([]graph.VertexID{0, 2})
	got, _ := runTemplate(g, alg)
	// Slot 0 = from 0, slot 1 = from 2.
	if got[0*2+0] != 0 || got[1*2+0] != 1 || !math.IsInf(got[2*2+0], 1) {
		t.Fatalf("slot 0 wrong: %v", got)
	}
	if got[2*2+1] != 0 || got[3*2+1] != 1 || !math.IsInf(got[0*2+1], 1) {
		t.Fatalf("slot 1 wrong: %v", got)
	}
}

func TestSSSPNoSourcesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sources accepted")
		}
	}()
	NewSSSPBF(nil)
}

func TestDefaultSources(t *testing.T) {
	s := DefaultSources(100)
	if len(s) != 4 {
		t.Fatalf("%d sources, want 4 (the paper's configuration)", len(s))
	}
	seen := map[graph.VertexID]bool{}
	for _, v := range s {
		if int(v) >= 100 {
			t.Fatalf("source %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Fatal("sources not distinct")
	}
}

func TestLPTemplateMatchesReferenceOnSmallDegrees(t *testing.T) {
	// Keep in-degrees <= lpSlots so the sketch merge is exact.
	g, err := gen.Road(gen.RoadConfig{Rows: 12, Cols: 12, DiagonalFraction: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lp := NewLP()
	got, gotIters := runTemplate(g, lp)
	want, wantIters := RefLP(g, lp.MaxIter)
	if !almostEqual(got, want, 0) {
		t.Fatal("template LP diverges from exact reference")
	}
	if gotIters > lp.MaxIter || wantIters > lp.MaxIter {
		t.Fatalf("iteration cap violated: %d/%d", gotIters, wantIters)
	}
}

func TestLPIterationCap(t *testing.T) {
	g := smallSocial(t)
	lp := NewLP()
	_, iters := runTemplate(g, lp)
	if iters > 15 {
		t.Fatalf("LP ran %d iterations, cap is 15", iters)
	}
}

func TestLPMergeExactWithinSlots(t *testing.T) {
	lp := NewLP()
	acc := make([]float64, lp.MsgWidth())
	lp.MergeIdentity(acc)
	// Merge labels 3,3,5,7 — counts {3:2, 5:1, 7:1}.
	for _, lab := range []float64{3, 3, 5, 7} {
		msg := make([]float64, lp.MsgWidth())
		lp.MergeIdentity(msg)
		msg[0], msg[1] = lab, 1
		lp.MSGMerge(acc, msg)
	}
	counts := map[float64]float64{}
	for i := 0; i < lpSlots; i++ {
		if acc[2*i] >= 0 {
			counts[acc[2*i]] = acc[2*i+1]
		}
	}
	if counts[3] != 2 || counts[5] != 1 || counts[7] != 1 {
		t.Fatalf("merged histogram wrong: %v", counts)
	}
}

func TestLPApplyTieBreaksToSmallerLabel(t *testing.T) {
	lp := NewLP()
	msg := make([]float64, lp.MsgWidth())
	lp.MergeIdentity(msg)
	msg[0], msg[1] = 9, 2
	msg[2], msg[3] = 4, 2
	attr := []float64{100}
	if !lp.MSGApply(nil, 0, attr, msg, true) {
		t.Fatal("apply reported no change")
	}
	if attr[0] != 4 {
		t.Fatalf("tie broke to %v, want 4", attr[0])
	}
}

func TestCCTemplateMatchesReference(t *testing.T) {
	// Symmetric graph: weakly connected components.
	g, err := gen.Road(gen.RoadConfig{Rows: 10, Cols: 10, DiagonalFraction: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runTemplate(g, NewCC())
	want, _ := RefCC(g)
	if !almostEqual(got, want, 0) {
		t.Fatal("template CC diverges from reference")
	}
	// A connected lattice has a single component labelled 0.
	for v, lab := range got {
		if lab != 0 {
			t.Fatalf("vertex %d in component %v, want 0", v, lab)
		}
	}
}

func TestCCTwoComponents(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 2, Weight: 1}, // 4 isolated
	})
	got, _ := runTemplate(g, NewCC())
	want := []float64{0, 0, 2, 2, 4}
	if !almostEqual(got, want, 0) {
		t.Fatalf("components %v, want %v", got, want)
	}
}

func TestKCoreTemplateMatchesReference(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		g, err := gen.RMAT(gen.RMATConfig{
			NumVertices: 200, NumEdges: 1200, A: 0.45, B: 0.22, C: 0.22, Seed: int64(k),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runTemplate(g, NewKCore(k))
		want, _ := RefKCore(g, k)
		for v := 0; v < g.NumVertices(); v++ {
			if got[v*2] != want[v] {
				t.Fatalf("k=%d: vertex %d alive=%v, reference %v", k, v, got[v*2], want[v])
			}
		}
	}
}

func TestKCoreTriangle(t *testing.T) {
	// A bidirectional triangle survives 2-core peeling; a pendant does not.
	g := graph.MustFromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 1, Weight: 1}, {Src: 2, Dst: 0, Weight: 1}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 0, Dst: 3, Weight: 1}, {Src: 3, Dst: 0, Weight: 1},
	})
	got, _ := runTemplate(g, NewKCore(2))
	for v := 0; v < 3; v++ {
		if got[v*2] != 1 {
			t.Fatalf("triangle vertex %d peeled from 2-core", v)
		}
	}
	if got[3*2] != 0 {
		t.Fatal("pendant vertex survived 2-core")
	}
}

func TestKCoreBadKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	NewKCore(0)
}

// Property: all algorithm merges are commutative, the invariant parallel
// and distributed merging relies on.
func TestMergeCommutativeQuick(t *testing.T) {
	algs := []template.Algorithm{
		NewPageRank(), NewSSSPBF([]graph.VertexID{0, 1}), NewCC(), NewKCore(2),
	}
	for _, a := range algs {
		a := a
		f := func(raw1, raw2 []float64) bool {
			mw := a.MsgWidth()
			m1 := make([]float64, mw)
			m2 := make([]float64, mw)
			a.MergeIdentity(m1)
			a.MergeIdentity(m2)
			for i := 0; i < mw && i < len(raw1); i++ {
				m1[i] = math.Abs(raw1[i])
			}
			for i := 0; i < mw && i < len(raw2); i++ {
				m2[i] = math.Abs(raw2[i])
			}
			ab := make([]float64, mw)
			ba := make([]float64, mw)
			a.MergeIdentity(ab)
			a.MergeIdentity(ba)
			a.MSGMerge(ab, m1)
			a.MSGMerge(ab, m2)
			a.MSGMerge(ba, m2)
			a.MSGMerge(ba, m1)
			for i := range ab {
				if ab[i] != ba[i] && !(math.IsInf(ab[i], 1) && math.IsInf(ba[i], 1)) {
					return false
				}
			}
			return true
		}
		seed := time.Now().UnixNano()
		if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
			t.Fatalf("%s merge not commutative (seed %d): %v", a.Name(), seed, err)
		}
	}
}

// Property: merging the identity is a no-op for every algorithm.
func TestMergeIdentityNeutralQuick(t *testing.T) {
	algs := []template.Algorithm{
		NewPageRank(), NewSSSPBF([]graph.VertexID{0}), NewLP(), NewCC(), NewKCore(3),
	}
	rng := rand.New(rand.NewSource(5))
	for _, a := range algs {
		mw := a.MsgWidth()
		for trial := 0; trial < 50; trial++ {
			acc := make([]float64, mw)
			a.MergeIdentity(acc)
			// Fold one real message so acc is a reachable state.
			msg := make([]float64, mw)
			a.MergeIdentity(msg)
			if _, ok := a.(*LP); ok {
				msg[0], msg[1] = float64(rng.Intn(50)), 1
			} else {
				for i := range msg {
					msg[i] = rng.Float64() * 100
				}
			}
			a.MSGMerge(acc, msg)
			before := make([]float64, mw)
			copy(before, acc)
			id := make([]float64, mw)
			a.MergeIdentity(id)
			a.MSGMerge(acc, id)
			for i := range acc {
				same := acc[i] == before[i] ||
					(math.IsInf(acc[i], 1) && math.IsInf(before[i], 1))
				if !same {
					t.Fatalf("%s: identity merge changed acc[%d]: %v -> %v",
						a.Name(), i, before[i], acc[i])
				}
			}
		}
	}
}
