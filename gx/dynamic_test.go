package gx

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gxplug/internal/gen/ingest"
	"gxplug/internal/graph"
)

// dynamicDeltas is the inline batch stream the dynamic conformance
// matrix evolves the test graph with: localized adds, then a mixed
// batch, then removes of previously added edges — all inside the seed
// vertex range, so traces stay replayable across every boundary.
func dynamicDeltas() []BatchDelta {
	return []BatchDelta{
		{Time: 1, Adds: []BatchEdge{{Src: 0, Dst: 5}, {Src: 7, Dst: 3}, {Src: 11, Dst: 2, Weight: 2}}},
		{Time: 2, Adds: []BatchEdge{{Src: 5, Dst: 0}}, Removes: []BatchEdge{{Src: 7, Dst: 3}}},
		{Time: 3, Adds: []BatchEdge{{Src: 2, Dst: 9}}, Removes: []BatchEdge{{Src: 0, Dst: 5}, {Src: 11, Dst: 2}}},
	}
}

func dynamicScenario(engine, alg, mode string) Scenario {
	return Scenario{
		Engine: engine, Algorithm: alg,
		Dataset: "orkut", Scale: 1200, Seed: 11, Nodes: 3,
		Batches: &BatchSpec{Inline: dynamicDeltas(), Mode: mode},
	}
}

// TestDynamicConformance is the dynamic differential matrix: PageRank
// and CC on both engines over a timestamped batch stream, incremental
// replay against from-scratch recomputation. At every batch boundary
// the two modes must produce bit-identical attributes (equal digests),
// identical iteration counts, identical charged apply costs — and the
// incremental boundary must never cost more virtual time. The final
// attribute arrays must be bit-identical too.
func TestDynamicConformance(t *testing.T) {
	for _, engine := range []string{"graphx", "powergraph"} {
		for _, alg := range []string{"pagerank", "cc"} {
			t.Run(engine+"/"+alg, func(t *testing.T) {
				inc, err := Run(dynamicScenario(engine, alg, ""))
				if err != nil {
					t.Fatal(err)
				}
				scratch, err := Run(dynamicScenario(engine, alg, "scratch"))
				if err != nil {
					t.Fatal(err)
				}
				if len(inc.Batches) != len(dynamicDeltas())+1 || len(scratch.Batches) != len(inc.Batches) {
					t.Fatalf("boundary counts: incremental %d, scratch %d, want %d",
						len(inc.Batches), len(scratch.Batches), len(dynamicDeltas())+1)
				}
				for i := range inc.Batches {
					bi, bs := inc.Batches[i], scratch.Batches[i]
					if bi.AttrsDigest != bs.AttrsDigest {
						t.Errorf("boundary %d: incremental attrs diverge from scratch", i)
					}
					if bi.Iterations != bs.Iterations {
						t.Errorf("boundary %d: incremental ran %d supersteps, scratch %d", i, bi.Iterations, bs.Iterations)
					}
					if bi.ApplyTime != bs.ApplyTime {
						t.Errorf("boundary %d: apply cost %v vs %v (must charge identically)", i, bi.ApplyTime, bs.ApplyTime)
					}
					if bi.Time > bs.Time {
						t.Errorf("boundary %d: incremental makespan %v exceeds scratch %v", i, bi.Time, bs.Time)
					}
					if i > 0 && bs.Dirty != 0 {
						t.Errorf("boundary %d: scratch reports dirty seed %d", i, bs.Dirty)
					}
				}
				if inc.Time > scratch.Time {
					t.Errorf("total incremental makespan %v exceeds scratch %v", inc.Time, scratch.Time)
				}
				if len(inc.Attrs) != len(scratch.Attrs) {
					t.Fatalf("final attrs length %d vs %d", len(inc.Attrs), len(scratch.Attrs))
				}
				for v := range inc.Attrs {
					if math.Float64bits(inc.Attrs[v]) != math.Float64bits(scratch.Attrs[v]) {
						t.Fatalf("final attrs diverge at %d: %x vs %x",
							v, math.Float64bits(inc.Attrs[v]), math.Float64bits(scratch.Attrs[v]))
					}
				}
			})
		}
	}

	// Pool independence: a suite of dynamic entries produces bit-identical
	// summaries (per-boundary digests included) at every pool size.
	var entries []SuiteEntry
	for _, engine := range []string{"graphx", "powergraph"} {
		for _, alg := range []string{"pagerank", "cc"} {
			entries = append(entries,
				SuiteEntry{Name: engine + "-" + alg + "-inc", Scenario: dynamicScenario(engine, alg, "")},
				SuiteEntry{Name: engine + "-" + alg + "-scratch", Scenario: dynamicScenario(engine, alg, "scratch")})
		}
	}
	suite := Suite{Name: "dynamic", Entries: entries}
	var base *SuiteResult
	for _, pool := range []int{1, 2, 4} {
		res, err := RunSuite(suite, WithPool(pool))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		for i := range res.Entries {
			if !reflect.DeepEqual(res.Entries[i].Summary, base.Entries[i].Summary) {
				t.Errorf("pool %d: entry %s summary differs from pool 1", pool, res.Entries[i].Name)
			}
		}
	}
}

// TestDynamicStreamResultCache is the serving contract for batch
// streams: resubmitting a scenario over an unchanged stream file is a
// result-cache hit with zero supersteps; rewriting the stream is a miss
// that recomputes.
func TestDynamicStreamResultCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.gxb")
	save := func(batches []graph.EdgeBatch) {
		t.Helper()
		if err := ingest.SaveBatchStreamFile(path, batches); err != nil {
			t.Fatal(err)
		}
	}
	save([]graph.EdgeBatch{
		{Time: 1, Adds: []graph.Edge{{Src: 0, Dst: 5, Weight: 1}, {Src: 7, Dst: 3, Weight: 1}}},
		{Time: 2, Removes: []graph.Edge{{Src: 0, Dst: 5, Weight: 1}}},
	})

	s := Scenario{
		Engine: "graphx", Algorithm: "cc",
		Dataset: "orkut", Scale: 1200, Seed: 11, Nodes: 2,
		Batches: &BatchSpec{Stream: "file+batches:" + path},
	}
	suite := Suite{Entries: []SuiteEntry{{Name: "dyn", Scenario: s}}}
	rc, err := NewResultCache(8)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewDatasetCache()
	run := func() (EntryResult, int64) {
		var steps int64
		res, err := RunSuite(suite,
			WithCache(cache), WithResultCache(rc),
			WithSuiteObserver(func(string, Superstep) { steps++ }))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return res.Entries[0], steps
	}

	first, steps1 := run()
	if first.CacheHit || steps1 == 0 {
		t.Fatalf("first run: hit=%v steps=%d, want computed", first.CacheHit, steps1)
	}
	if len(first.Summary.Batches) != 3 {
		t.Fatalf("summary carries %d boundaries, want 3", len(first.Summary.Batches))
	}

	second, steps2 := run()
	if !second.CacheHit || steps2 != 0 {
		t.Fatalf("unchanged stream resubmission: hit=%v steps=%d, want hit with 0 supersteps", second.CacheHit, steps2)
	}
	if !reflect.DeepEqual(second.Summary, first.Summary) {
		t.Fatal("served summary differs from computed one")
	}

	// Rewriting the stream must be a distinct key: the digest-folded
	// result key changes, so the entry recomputes.
	save([]graph.EdgeBatch{
		{Time: 1, Adds: []graph.Edge{{Src: 2, Dst: 9, Weight: 1}}},
	})
	third, steps3 := run()
	if third.CacheHit || steps3 == 0 {
		t.Fatalf("rewritten stream: hit=%v steps=%d, want recompute", third.CacheHit, steps3)
	}
	if len(third.Summary.Batches) != 2 {
		t.Fatalf("rewritten stream summary carries %d boundaries, want 2", len(third.Summary.Batches))
	}
}

// TestDynamicScenarioValidation pins the batch-spec validation rules.
func TestDynamicScenarioValidation(t *testing.T) {
	ok := dynamicScenario("graphx", "pagerank", "")
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid dynamic scenario rejected: %v", err)
	}

	bad := map[string]func(*Scenario){
		"empty spec":    func(s *Scenario) { s.Batches = &BatchSpec{} },
		"stream+inline": func(s *Scenario) { s.Batches.Stream = "file+batches:x.gxb" },
		"unknown mode":  func(s *Scenario) { s.Batches.Mode = "lazy" },
		"times not ++":  func(s *Scenario) { s.Batches.Inline[2].Time = 2 },
		"vertex range":  func(s *Scenario) { s.Batches.Inline[0].Adds[0].Src = -1 },
		"bad weight":    func(s *Scenario) { s.Batches.Inline[0].Adds[0].Weight = math.Inf(1) },
		"accel":         func(s *Scenario) { s.Accel = "cpu" },
		"mix":           func(s *Scenario) { s.Mix = []string{"cpu", "cpu", "cpu"} },
		"faults":        func(s *Scenario) { s.Faults = []FaultSpec{{Kind: FaultMsgStall, Node: 0, Superstep: 1}} },
	}
	for name, mutate := range bad {
		s := dynamicScenario("graphx", "pagerank", "")
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: scenario accepted, want error", name)
		}
	}

	// Checkpointing and resuming are incompatible with batch streams.
	if _, err := Run(ok, WithCheckpoint(1, func(*CheckpointState) error { return nil })); err == nil {
		t.Error("batches with checkpointing accepted, want error")
	}
	if _, err := Resume(ok, &CheckpointState{}); err == nil {
		t.Error("batches with resume accepted, want error")
	}
}

// TestDynamicVertexGrowthBound: a batch may grow the vertex range by two
// ids per add and no further. One far id — anywhere in the stream, in
// either mode — is rejected by Run and by a suite entry before the seed
// boundary runs (class validation, no superstep observed), not after an
// offset array has been sized for it.
func TestDynamicVertexGrowthBound(t *testing.T) {
	for _, mode := range []string{"", "scratch"} {
		s := dynamicScenario("graphx", "pagerank", mode)
		s.Batches.Inline[2].Adds[0].Dst = 4000000000
		if err := s.Validate(); err != nil {
			t.Fatalf("ids are bounded against the graph, not by Validate: %v", err)
		}
		supersteps := 0
		_, err := Run(s, WithObserver(func(Superstep) { supersteps++ }))
		const want = "engine: batch 3: graph: batch add 0 (2->4000000000) beyond vertex growth bound"
		if FailureClass(err) != ClassValidation || !strings.Contains(err.Error(), want) || supersteps != 0 {
			t.Errorf("mode %q: Run: class %q after %d supersteps, err %v", mode, FailureClass(err), supersteps, err)
		}
		res, rerr := RunSuite(Suite{Entries: []SuiteEntry{{Name: "far", Scenario: s}}})
		if rerr != nil {
			t.Fatal(rerr)
		}
		if e := res.Entries[0]; e.Class != ClassValidation || e.Err == nil || e.Err.Error() != err.Error() || e.Totals.Supersteps != 0 {
			t.Errorf("mode %q: suite entry: class %q, %d supersteps, err %v", mode, e.Class, e.Totals.Supersteps, e.Err)
		}
	}
	// Growth inside the bound still runs: the last id a one-add batch may name.
	s := dynamicScenario("graphx", "pagerank", "")
	g, err := LoadDataset(s.Dataset, s.Scale, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s.Batches.Inline = []BatchDelta{{Time: 1, Adds: []BatchEdge{{Src: 0, Dst: int64(g.NumVertices()) + 1}}}}
	if _, err := Run(s); err != nil {
		t.Errorf("growth by two vertices rejected: %v", err)
	}
}

// TestDynamicModeMatrix pins every algorithm × mode × engine cell of the
// dynamic axis as a decision: a cell either runs to completion or is
// rejected before any superstep — by Run, a suite entry and the planner
// alike, with one error text of class "validation" that names the mode
// that does work. Incremental replay needs the algorithm's opt-in;
// scratch mode runs everything.
func TestDynamicModeMatrix(t *testing.T) {
	for _, alg := range Algorithms() {
		a, err := NewAlgorithm(alg, AlgoParams{}, 64)
		if err != nil {
			t.Fatal(err)
		}
		replays := a.Hints().Incremental
		if (alg == "pagerank" || alg == "cc") && !replays {
			t.Errorf("%s lost its Hints().Incremental opt-in", alg)
		}
		for _, engine := range Engines() {
			for _, mode := range []string{"incremental", "scratch"} {
				t.Run(alg+"/"+engine+"/"+mode, func(t *testing.T) {
					s := dynamicScenario(engine, alg, mode)
					s.Scale, s.MaxIter = 4000, 3 // the cells differ in admission, not in size
					if err := s.Validate(); err != nil {
						t.Fatal(err)
					}
					steps := 0
					res, runErr := Run(s, WithObserver(func(Superstep) { steps++ }))
					sr, err := RunSuite(Suite{Entries: []SuiteEntry{{Name: "cell", Scenario: s}}},
						WithSuiteObserver(func(string, Superstep) { steps++ }))
					if err != nil {
						t.Fatal(err)
					}
					entry := sr.Entries[0]
					_, estErr := NewPlanner(nil).Estimate(s)

					if replays || mode == "scratch" {
						if runErr != nil || entry.Err != nil || estErr != nil {
							t.Fatalf("rejected: run %v, suite entry %v, estimate %v", runErr, entry.Err, estErr)
						}
						if want := len(dynamicDeltas()) + 1; len(res.Batches) != want || len(entry.Summary.Batches) != want {
							t.Errorf("ran %d and %d boundaries, want %d", len(res.Batches), len(entry.Summary.Batches), want)
						}
						return
					}
					if steps != 0 {
						t.Errorf("%d supersteps ran before the rejection", steps)
					}
					for name, err := range map[string]error{"run": runErr, "suite entry": entry.Err, "estimate": estErr} {
						if err == nil {
							t.Fatalf("%s accepted", name)
						}
						if FailureClass(err) != ClassValidation || !strings.Contains(err.Error(), `"mode": "scratch"`) {
							t.Errorf("%s: class %q, error %q; want validation naming \"mode\": \"scratch\"", name, FailureClass(err), err)
						}
						if err.Error() != runErr.Error() {
							t.Errorf("%s error %q differs from run's %q", name, err, runErr)
						}
					}
					if entry.Class != ClassValidation {
						t.Errorf("suite entry class %q", entry.Class)
					}
				})
			}
		}
	}

	// The remaining stream combinations are rejections by decision, each
	// made before any superstep: options that bypass the scenario's own
	// field checks still meet the engine's rule.
	ok := dynamicScenario("graphx", "pagerank", "")
	sink := func(*CheckpointState) error { return nil }
	for name, call := range map[string]func(Option) error{
		"plug":       func(obs Option) error { _, err := Run(ok, WithPlug(CPUPlug()), obs); return err },
		"checkpoint": func(obs Option) error { _, err := Run(ok, WithCheckpoint(1, sink), obs); return err },
		"resume":     func(obs Option) error { _, err := Resume(ok, &CheckpointState{Iteration: 1}, obs); return err },
	} {
		steps := 0
		err := call(WithObserver(func(Superstep) { steps++ }))
		if FailureClass(err) != ClassValidation || steps != 0 {
			t.Errorf("stream × %s: class %q after %d supersteps (%v), want validation before any", name, FailureClass(err), steps, err)
		}
	}
}

// BenchmarkDynamic records the incremental-vs-scratch cost on localized
// deltas: the same stream, the two recomputation modes, on both engines,
// whose replay cones differ in density. Only the virtual half is a
// contract: TestDynamicConformance asserts that incremental replay never
// costs more virtual makespan (virtual-ns/op) than scratch. Wall time
// (ns/op) is recorded here, not asserted; the cone bounds the edges
// folded and vertices applied, but trace recording is extra host work
// scratch does not do. The recorded numbers are BENCHMARK.json's
// engine.inc_* metrics.
//
// Each engine is measured twice: a solo Run, which loads the dataset and
// builds every boundary on every op, and warm/ENGINE,
// a one-entry suite per op over one shared DatasetCache — what gxd
// serves once the stream has run before.
func benchmarkDynamic(b *testing.B, mode string) {
	bench := func(b *testing.B, run func() (*Result, error)) {
		var virtual int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := run()
			if err != nil {
				b.Fatal(err)
			}
			virtual += int64(res.Time)
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "virtual-ns/op")
	}
	for _, engine := range []string{"graphx", "powergraph"} {
		s := dynamicScenario(engine, "pagerank", mode)
		b.Run(engine, func(b *testing.B) {
			bench(b, func() (*Result, error) { return Run(s) })
		})
		cache := NewDatasetCache()
		suite := Suite{Entries: []SuiteEntry{{Name: engine, Scenario: s}}}
		warm := func() (*Result, error) {
			res, err := RunSuite(suite, WithCache(cache), WithPool(1))
			if err != nil {
				return nil, err
			}
			return res.Entries[0].Result, res.Err()
		}
		b.Run("warm/"+engine, func(b *testing.B) {
			if _, err := warm(); err != nil {
				b.Fatal(err)
			}
			bench(b, warm)
		})
	}
}

func BenchmarkDynamicIncremental(b *testing.B) { benchmarkDynamic(b, "incremental") }
func BenchmarkDynamicScratch(b *testing.B)     { benchmarkDynamic(b, "scratch") }
