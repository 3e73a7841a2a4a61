package gx

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gxplug/internal/gen"
	"gxplug/internal/gen/ingest"
	"gxplug/internal/graph"
)

// streamFiles writes dynamic-inc's two three-batch streams over orkut at
// the given scale — a small and a large one — and returns their
// references by name.
func streamFiles(t testing.TB, scale int64, largeAdds int) map[string]string {
	t.Helper()
	g, err := gen.Load(gen.Orkut, scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	refs := map[string]string{}
	for name, c := range map[string]gen.BatchesConfig{
		"small": {Batches: 3, Adds: 12, Removes: 6, Seed: 42},
		"large": {Batches: 3, Adds: largeAdds, Removes: largeAdds / 2, Seed: 43},
	} {
		batches, err := gen.SynthesizeBatches(g, c)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".gxb")
		if err := ingest.SaveBatchStreamFile(path, batches); err != nil {
			t.Fatal(err)
		}
		refs[name] = "file+batches:" + path
	}
	return refs
}

// streamScenario is one dynamic-inc-shaped scenario: four nodes, at most
// 16 supersteps per boundary, over orkut at scale.
func streamScenario(engine, alg string, scale int64, stream string) Scenario {
	return Scenario{
		Engine: engine, Algorithm: alg, Dataset: "orkut", Scale: scale, Seed: 42,
		Nodes: 4, MaxIter: 16, Batches: &BatchSpec{Stream: stream},
	}
}

// soloRun runs s alone, through a private cache, and summarizes it the
// way a suite entry is summarized.
func soloRun(t *testing.T, s Scenario, opts ...Option) (*Result, ResultSummary) {
	t.Helper()
	var totals EntryTotals
	res, err := Run(s, append(opts, WithObserver(totals.Add))...)
	if err != nil {
		t.Fatal(err)
	}
	return res, Summarize(res, totals)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStreamBoundariesPrepared runs dynamic-inc's eight scenarios —
// {graphx, powergraph} × {pagerank, cc} × {small, large} streams — at a
// small scale as one suite on one cache, at pools 1 and 4. Each boundary
// of each (stream, engine, nodes) is built exactly once, the suite run
// again on the warm cache builds nothing, and every entry's summary and
// per-boundary reports are byte-identical to the scenario run alone. A
// run under a partitioning override gets boundaries of its own.
func TestStreamBoundariesPrepared(t *testing.T) {
	const scale = 8000
	refs := streamFiles(t, scale, 40)
	var entries []SuiteEntry
	for _, engine := range []string{"graphx", "powergraph"} {
		for _, alg := range []string{"pagerank", "cc"} {
			for _, size := range []string{"small", "large"} {
				entries = append(entries, SuiteEntry{
					Name:     engine + "-" + alg + "-" + size,
					Scenario: streamScenario(engine, alg, scale, refs[size]),
				})
			}
		}
	}
	solo := make([]*Result, len(entries))
	soloSum := make([]string, len(entries))
	for i, e := range entries {
		res, sum := soloRun(t, e.Scenario)
		solo[i], soloSum[i] = res, mustJSON(t, sum)
	}
	// Two streams × two engines at one node count, three batches each;
	// every version is partitioned once, beside the two base graphs.
	const builds = 2 * 2 * 3
	for _, pool := range []int{1, 4} {
		cache := NewDatasetCache()
		for pass := 0; pass < 2; pass++ {
			res, err := RunSuite(Suite{Name: "dynamic-inc", Entries: entries}, WithCache(cache), WithPool(pool))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			st := cache.Stats()
			if st.BoundaryBuilds != builds || st.PartitionBuilds != 2+builds {
				t.Fatalf("pool %d, pass %d: %d boundary and %d partition builds, want %d and %d",
					pool, pass, st.BoundaryBuilds, st.PartitionBuilds, builds, 2+builds)
			}
			for i, e := range res.Entries {
				if got := mustJSON(t, e.Summary); got != soloSum[i] {
					t.Errorf("pool %d, pass %d, %s: summary differs from a solo run\n got %s\nwant %s", pool, pass, e.Name, got, soloSum[i])
				}
				if !reflect.DeepEqual(e.Result.Batches, solo[i].Batches) {
					t.Errorf("pool %d, pass %d, %s: boundaries differ from a solo run", pool, pass, e.Name)
				}
			}
		}

		// The range cut graphx defaults to, replaced by a vertex cut.
		s := entries[0].Scenario
		g, err := cache.Graph(s.Dataset, s.Scale, s.Seed)
		if err != nil {
			t.Fatal(err)
		}
		override := graph.GreedyVertexCut(g, s.Nodes)
		res, err := run(s, cache, []Option{WithPartitioning(override)})
		if err != nil {
			t.Fatal(err)
		}
		if got := cache.Stats().BoundaryBuilds; got != builds+3 {
			t.Errorf("pool %d: %d boundary builds after an override run, want %d", pool, got, builds+3)
		}
		want, _ := soloRun(t, s, WithPartitioning(override))
		if !reflect.DeepEqual(res.Batches, want.Batches) {
			t.Errorf("pool %d: override run differs from a solo one", pool)
		}
		if reflect.DeepEqual(res.Batches, solo[0].Batches) {
			t.Errorf("pool %d: override run reports the default partitioning's boundaries", pool)
		}
	}
}

// TestStreamBoundariesConcurrent runs two suites over one stream at once
// on one cache, each at pool 4, mixing incremental and scratch entries:
// the boundaries are built exactly once, signed and seeded at most once,
// while several runs read them — race-pinned under race-dynamic.
func TestStreamBoundariesConcurrent(t *testing.T) {
	const scale = 8000
	ref := streamFiles(t, scale, 40)["large"]
	var entries []SuiteEntry
	for _, alg := range []string{"pagerank", "cc"} {
		for _, mode := range []string{"", "scratch"} {
			s := streamScenario("powergraph", alg, scale, ref)
			s.Batches.Mode = mode
			entries = append(entries, SuiteEntry{Name: alg + "-" + mode, Scenario: s})
		}
	}
	cache := NewDatasetCache()
	var results [2]*SuiteResult
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunSuite(Suite{Entries: entries}, WithCache(cache), WithPool(4))
			if err == nil {
				err = res.Err()
			}
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := cache.Stats(); st.BoundaryBuilds != 3 {
		t.Fatalf("%d boundary builds, want 3", st.BoundaryBuilds)
	}
	for i, e := range results[0].Entries {
		if !reflect.DeepEqual(e.Summary, results[1].Entries[i].Summary) {
			t.Errorf("%s: the two suites disagree", e.Name)
		}
	}
}

// A batch that does not apply fails every run that reaches it the same
// way — the text and class a run building its own boundaries reports,
// after the boundaries before it ran — and the failed build is memoized:
// a second run on the cache builds nothing. An inline stream is keyed by
// its content: the stream it was edited from still runs on that cache,
// on boundaries of its own.
func TestStreamBoundaryErrorMemoized(t *testing.T) {
	deltas := dynamicDeltas()
	deltas[1].Removes = append(deltas[1].Removes, BatchEdge{Src: 3, Dst: 7})
	for _, mode := range []string{"", "scratch"} {
		s := dynamicScenario("powergraph", "pagerank", mode)
		s.Scale, s.Batches.Inline = 8000, deltas
		_, want := Run(s)
		if want == nil || want.Error() != "engine: batch 2: graph: batch removes absent edge 3->7" {
			t.Fatalf("mode %q: solo run error %v", mode, want)
		}
		cache := NewDatasetCache()
		for pass := 0; pass < 2; pass++ {
			last := -1
			_, err := run(s, cache, []Option{WithObserver(func(st Superstep) { last = st.Batch })})
			if err == nil || err.Error() != want.Error() || FailureClass(err) != FailureClass(want) {
				t.Errorf("mode %q, pass %d: error %v (class %q), want %v (class %q)",
					mode, pass, err, FailureClass(err), want, FailureClass(want))
			}
			if last != 1 {
				t.Errorf("mode %q, pass %d: last superstep ran at boundary %d, want 1", mode, pass, last)
			}
			if st := cache.Stats(); st.BoundaryBuilds != 2 {
				t.Errorf("mode %q, pass %d: %d boundary builds, want 2", mode, pass, st.BoundaryBuilds)
			}
		}
		s.Batches.Inline = dynamicDeltas()
		res, err := run(s, cache, nil)
		if err != nil {
			t.Fatalf("mode %q: the unedited stream: %v", mode, err)
		}
		if want, _ := soloRun(t, s); !reflect.DeepEqual(res.Batches, want.Batches) {
			t.Errorf("mode %q: the unedited stream differs from a solo run", mode)
		}
		if st := cache.Stats(); st.BoundaryBuilds != 2+3 {
			t.Errorf("mode %q: %d boundary builds after the unedited stream, want 5", mode, st.BoundaryBuilds)
		}
	}
}

// TestWarmStreamBoundaryAllocs reruns a stream scenario on a warm cache:
// its boundaries come prepared, so what a boundary allocates is per-run
// state — attributes, frontiers, traces, the replay's cone and scratch —
// within 16 B per vertex and superstep, plus a fixed allowance, and no
// per-edge term. (A run that builds its own boundaries allocates about
// 40 B per edge and boundary on this stream.)
func TestWarmStreamBoundaryAllocs(t *testing.T) {
	const scale = 2000
	s := streamScenario("graphx", "pagerank", scale, streamFiles(t, scale, 400)["large"])
	cache := NewDatasetCache()
	suite := Suite{Entries: []SuiteEntry{{Name: "warm", Scenario: s}}}
	if _, err := RunSuite(suite, WithCache(cache), WithPool(1)); err != nil {
		t.Fatal(err)
	}
	g, err := cache.Graph(s.Dataset, s.Scale, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunSuite(suite, WithCache(cache), WithPool(1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	boundaries := float64(len(res.Entries[0].Result.Batches))
	got := float64(after.TotalAlloc-before.TotalAlloc) / boundaries
	budget := 16*float64(g.NumVertices())*float64(res.Entries[0].Result.Iterations)/boundaries + 64<<10
	t.Logf("%.0f B/boundary = %.1f B/edge (budget %.0f, %d vertices, %d edges, %d supersteps)",
		got, got/float64(g.NumEdges()), budget, g.NumVertices(), g.NumEdges(), res.Entries[0].Result.Iterations)
	if !raceEnabled && got > budget {
		t.Errorf("a warm boundary allocates %.0f B, budget %.0f", got, budget)
	}
}
