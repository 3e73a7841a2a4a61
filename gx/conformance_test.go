package gx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/graph"
)

// exactMerge classifies the built-in algorithms by merge operator. Exact
// operators (min, count, flag) make a run's result independent of merge
// order, so every engine path must reproduce the sequential reference in
// internal/algos bit for bit. PageRank merges by floating-point sum,
// where distributed merge order legitimately moves the last ulp; its
// cells are checked bitwise against each other per execution mode and
// within tolerance of the reference. Algorithms registered by other
// tests in this package default to the tolerance path.
var exactMerge = map[string]bool{
	"pagerank": false,
	"sssp":     true,
	"lp":       true,
	"cc":       true,
	"kcore":    true,
	"bfs":      true,
}

// conformanceVariant is one execution mode of the matrix. The anchor
// string groups variants whose float paths must agree bit for bit even
// for order-sensitive merges: all caching-on plugged cells share one
// anchor, caching-off cells another (caching changes which float path
// produces a value — cache row vs fresh fetch — which legitimately moves
// a sum's last ulp; within one mode there is no such freedom).
type conformanceVariant struct {
	name   string
	anchor string
	heavy  bool
	apply  func(*Scenario)
}

// conformanceVariants spans the execution modes of the matrix: native,
// plugged with every optimization, the caching/skipping toggle
// sub-combos, and a bounded synchronization cache small enough to force
// evictions and dirty spills on the test graph.
func conformanceVariants() []conformanceVariant {
	allBut := func(caching, skipping bool) *Toggles {
		return &Toggles{Pipeline: true, Caching: caching, Skipping: skipping, OptimalBlockSize: true}
	}
	return []conformanceVariant{
		{"native", "native", false, func(s *Scenario) { s.Accel = "none" }},
		{"plugged", "cached", false, func(s *Scenario) { s.Accel = "cpu" }},
		{"caching-off", "uncached", true, func(s *Scenario) { s.Accel = "cpu"; s.Opt = allBut(false, true) }},
		{"skipping-off", "cached", true, func(s *Scenario) { s.Accel = "cpu"; s.Opt = allBut(true, false) }},
		{"caching-skipping-off", "uncached", true, func(s *Scenario) { s.Accel = "cpu"; s.Opt = allBut(false, false) }},
		{"bounded-cache", "cached", false, func(s *Scenario) { s.Accel = "cpu"; s.CacheCapacity = 8 }},
	}
}

// TestConformanceMatrix is the differential conformance matrix: every
// registered algorithm × every registered engine × {native, plugged,
// caching on/off, skipping on/off, bounded cache} against the sequential
// reference in internal/algos. Exact-merge algorithms must match the
// reference bit for bit on every path; float-sum algorithms must be
// bitwise identical across all plugged variants and within 1e-9 of the
// reference everywhere. Heavy cells (the toggle sub-combos) are skipped
// under -short.
func TestConformanceMatrix(t *testing.T) {
	const (
		dataset = "orkut"
		scale   = 20000
		seed    = 42
		nodes   = 3
	)
	g, err := LoadDataset(dataset, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	variants := conformanceVariants()

	for _, algName := range Algorithms() {
		ref, err := NewAlgorithm(algName, AlgoParams{}, g.NumVertices())
		if err != nil {
			t.Fatalf("%s: %v", algName, err)
		}
		want, _ := algos.Sequential(g, ref)
		exact := exactMerge[algName]

		for _, engName := range Engines() {
			// The first cell of each anchor group pins the bitwise
			// cross-variant comparison for non-exact algorithms.
			anchors := make(map[string]*Result)
			var iterations = -1
			for _, v := range variants {
				if v.heavy && testing.Short() {
					continue
				}
				s := Scenario{
					Engine:    engName,
					Algorithm: algName,
					Dataset:   dataset,
					Scale:     scale,
					Seed:      seed,
					Nodes:     nodes,
				}
				v.apply(&s)
				t.Run(algName+"/"+engName+"/"+v.name, func(t *testing.T) {
					res, err := Run(s)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Attrs) != len(want) {
						t.Fatalf("attr length %d, reference %d", len(res.Attrs), len(want))
					}
					if exact {
						for i := range want {
							if !bitEqual(res.Attrs[i], want[i]) {
								t.Fatalf("attr %d = %v, reference %v (exact-merge algorithm must match bit for bit)",
									i, res.Attrs[i], want[i])
							}
						}
					} else {
						for i := range want {
							if d := math.Abs(res.Attrs[i] - want[i]); !(d <= 1e-9 || bitEqual(res.Attrs[i], want[i])) {
								t.Fatalf("attr %d = %v, reference %v (|Δ|=%v > 1e-9)", i, res.Attrs[i], want[i], d)
							}
						}
						if anchor := anchors[v.anchor]; anchor != nil {
							for i := range anchor.Attrs {
								if !bitEqual(res.Attrs[i], anchor.Attrs[i]) {
									t.Fatalf("attr %d = %v differs from %s anchor %v: same-mode cells must agree bit for bit",
										i, res.Attrs[i], v.anchor, anchor.Attrs[i])
								}
							}
						}
					}
					if anchors[v.anchor] == nil {
						anchors[v.anchor] = res
					}
					// Iteration counts are mode-independent across the
					// whole matrix row.
					if iterations < 0 {
						iterations = res.Iterations
					} else if res.Iterations != iterations {
						t.Fatalf("%d iterations, other cells ran %d", res.Iterations, iterations)
					}
					if v.name == "bounded-cache" {
						var evictions int64
						for _, as := range res.AgentStats {
							evictions += as.CacheEvictions
						}
						if evictions == 0 {
							t.Fatal("bounded cell drove no evictions — the bound is not binding")
						}
					}
				})
			}
		}
	}
}

// bitEqual compares two float64s bit for bit, treating equal-signed
// infinities as equal (unreached SSSP/BFS distances are +Inf).
func bitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// sourceOnlyDeclared is what each built-in states in Hints.SourceOnly.
// SSSP's message carries d+w, so it must never declare the property.
var sourceOnlyDeclared = map[string]bool{
	"pagerank": true,
	"sssp":     false,
	"lp":       true,
	"cc":       true,
	"kcore":    true,
	"bfs":      true,
}

// checkMSGGen is the checker of the MSGGen contract. Over random edges
// and attribute rows (±0, ±Inf and NaN among them), handed a scratch row
// that arrives dirty, differently each call, MSGGen must report the same
// ok and write a bit-identical message for the same (src, dst, w,
// srcAttr): the executors reuse one row per worker while the sequential
// reference clears its row per edge, so a slot left unwritten would set
// them apart. An algorithm that declares Hints.SourceOnly must moreover
// do so whatever dst and w it is handed, and MSGMerge must leave the
// message it folds untouched — executors generate once per source run and
// merge that one message into every destination.
func checkMSGGen(alg Algorithm, rng *rand.Rand) error {
	sourceOnly := alg.Hints().SourceOnly
	const numV = 1000
	ctx := &Context{
		NumVertices: numV,
		OutDeg:      func(v VertexID) int { return int(v) % 5 },
		InDeg:       func(v VertexID) int { return int(v) % 3 },
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, 2, 3}
	value := func() float64 {
		if rng.Intn(2) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * 100
	}
	aw, mw := alg.AttrWidth(), alg.MsgWidth()
	srcAttr := make([]float64, aw)
	first, msg, acc := make([]float64, mw), make([]float64, mw), make([]float64, mw)
	for trial := 0; trial < 400; trial++ {
		ctx.Iteration = rng.Intn(6)
		src := VertexID(rng.Intn(numV))
		for i := range srcAttr {
			srcAttr[i] = value()
		}
		dst, w := VertexID(rng.Intn(numV)), value()
		var firstOK bool
		for call := 0; call < 6; call++ {
			// Calls 1 and 2 repeat the edge; a SourceOnly declaration is
			// then held to other edges out of the same source.
			if sourceOnly && call >= 3 {
				dst, w = VertexID(rng.Intn(numV)), value()
			}
			// The scratch arrives dirty, differently each call: a slot the
			// algorithm leaves unwritten shows up as a difference.
			for i := range msg {
				msg[i] = value()
			}
			produced := alg.MSGGen(ctx, src, dst, w, srcAttr, msg)
			if call == 0 {
				firstOK = produced
				copy(first, msg)
				continue
			}
			if produced != firstOK {
				return fmt.Errorf("source %d, attributes %v, edge to %d weighing %v: MSGGen reported %v, and %v on an earlier call", src, srcAttr, dst, w, produced, firstOK)
			}
			if produced && !attrsBitEqual(msg, first) {
				return fmt.Errorf("source %d, attributes %v, edge to %d weighing %v: message %v, and %v on an earlier call", src, srcAttr, dst, w, msg, first)
			}
		}
		if sourceOnly && firstOK {
			copy(msg, first)
			alg.MergeIdentity(acc)
			alg.MSGMerge(acc, msg) // into the identity, then into a row that holds something
			alg.MSGMerge(acc, msg)
			if !attrsBitEqual(msg, first) {
				return fmt.Errorf("source %d, attributes %v: MSGMerge rewrote the message it folded: %v became %v", src, srcAttr, first, msg)
			}
		}
	}
	return nil
}

// eagerSSSP is SSSP with a false SourceOnly declaration.
type eagerSSSP struct{ *algos.SSSPBF }

func (s eagerSSSP) Hints() Hints {
	h := s.SSSPBF.Hints()
	h.SourceOnly = true
	return h
}

// TestSourceOnlyDeclarationsHold holds every registered algorithm's
// MSGGen to its contract — SSSP's per-edge message included, plus the
// SourceOnly half wherever it is declared — pins which built-ins declare
// SourceOnly, and shows the checker catches a false declaration. The
// end-to-end half of the proof is TestConformanceMatrix: executors hand
// MSGGen dirty scratch and trust the declaration, while algos.Sequential
// clears its row and stays per-edge.
func TestSourceOnlyDeclarationsHold(t *testing.T) {
	for _, name := range Algorithms() {
		alg, err := NewAlgorithm(name, AlgoParams{}, 1000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		declared := alg.Hints().SourceOnly
		if want, builtin := sourceOnlyDeclared[name]; builtin && declared != want {
			t.Errorf("%s: SourceOnly = %v, want %v", name, declared, want)
		}
		if err := checkMSGGen(alg, rand.New(rand.NewSource(9))); err != nil {
			t.Errorf("%s (SourceOnly %v): %v", name, declared, err)
		}
	}
	lying := eagerSSSP{algos.NewSSSPBF([]graph.VertexID{0, 1})}
	if err := checkMSGGen(lying, rand.New(rand.NewSource(9))); err == nil {
		t.Error("SSSP declaring SourceOnly passed the checker")
	}
	lazy := lazySSSP{algos.NewSSSPBF([]graph.VertexID{0, 1})}
	if err := checkMSGGen(lazy, rand.New(rand.NewSource(9))); err == nil {
		t.Error("SSSP leaving unreached slots unwritten passed the checker")
	}
}

// lazySSSP is SSSP whose MSGGen leaves the slots of unreached sources
// unwritten: right on a cleared row, wrong on the executors' reused one.
type lazySSSP struct{ *algos.SSSPBF }

func (s lazySSSP) MSGGen(_ *Context, _, _ VertexID, w float64, srcAttr, msg []float64) bool {
	any := false
	for i, d := range srcAttr {
		if !math.IsInf(d, 1) {
			msg[i] = d + w
			any = true
		}
	}
	return any
}
