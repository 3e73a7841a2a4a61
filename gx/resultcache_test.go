package gx

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func writeTempEdgeList(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.el")
	rewriteFile(t, path, content)
	return path
}

func rewriteFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustResultCache(t testing.TB, capacity int) *ResultCache {
	t.Helper()
	c, err := NewResultCache(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestResultCacheLRU pins the eviction policy: least recently used goes
// first, Get refreshes recency, Put of an existing key refreshes both
// value and recency.
func TestResultCacheLRU(t *testing.T) {
	c := mustResultCache(t, 2)
	c.Put("a", ResultSummary{Iterations: 1})
	c.Put("b", ResultSummary{Iterations: 2})
	if _, ok := c.Get("a"); !ok { // refresh a: now b is LRU
		t.Fatal("a missing")
	}
	c.Put("c", ResultSummary{Iterations: 3}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if sum, ok := c.Get("a"); !ok || sum.Iterations != 1 {
		t.Fatalf("a = %+v, %v", sum, ok)
	}
	c.Put("a", ResultSummary{Iterations: 10}) // refresh in place, no eviction
	if sum, _ := c.Get("a"); sum.Iterations != 10 {
		t.Fatalf("refreshed a = %+v", sum)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}
	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("purged stats = %+v", st)
	}
	if _, err := NewResultCache(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

// TestResultCacheConcurrent hammers one cache from many goroutines under
// the race detector; the final entry count must respect capacity.
func TestResultCacheConcurrent(t *testing.T) {
	c := mustResultCache(t, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%32)
				if _, ok := c.Get(key); !ok {
					c.Put(key, ResultSummary{Iterations: i})
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 16 {
		t.Fatalf("entries %d exceed capacity", st.Entries)
	}
}

// TestSuiteResultCacheSecondRunFree is the serving-layer contract at the
// library level: rerunning a suite against the same result cache serves
// every entry from cache — zero engine supersteps observed, nil Results,
// CacheHit set — with summaries identical to the computed first run.
func TestSuiteResultCacheSecondRunFree(t *testing.T) {
	suite := Suite{Entries: []SuiteEntry{
		{Name: "pr", Scenario: Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "orkut", Scale: 20000, Nodes: 2, Accel: "gpu", MaxIter: 5}},
		{Name: "cc", Scenario: Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "orkut", Scale: 20000, Nodes: 2}},
	}}
	rc := mustResultCache(t, 8)
	cache := NewDatasetCache()

	countSteps := func() (*SuiteResult, int64) {
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
		return res, steps
	}

	first, steps1 := countSteps()
	if steps1 == 0 {
		t.Fatal("first run executed no supersteps")
	}
	for _, er := range first.Entries {
		if er.CacheHit || er.Result == nil {
			t.Fatalf("%s: first run should compute (hit=%v)", er.Name, er.CacheHit)
		}
	}

	second, steps2 := countSteps()
	if steps2 != 0 {
		t.Fatalf("second run executed %d supersteps, want 0 (all cached)", steps2)
	}
	for i, er := range second.Entries {
		if !er.CacheHit {
			t.Fatalf("%s: no cache hit on identical rerun", er.Name)
		}
		if er.Result != nil {
			t.Fatalf("%s: cache hit carries a Result", er.Name)
		}
		if !reflect.DeepEqual(er.Summary, first.Entries[i].Summary) {
			t.Fatalf("%s: cached summary differs from computed:\n%+v\n%+v",
				er.Name, er.Summary, first.Entries[i].Summary)
		}
	}
	if st := rc.Stats(); st.Hits != int64(len(suite.Entries)) {
		t.Fatalf("result cache hits = %d, want %d", st.Hits, len(suite.Entries))
	}

	// A reordered-JSON respelling of the same suite still hits: the key
	// is the canonical digest, not the bytes.
	respelled := suite
	respelled.Entries = append([]SuiteEntry(nil), suite.Entries...)
	respelled.Entries[0].Scenario.Network = DefaultNetwork // explicit default
	respelled.Entries[1].Scenario.GPUs = 1
	res3, err := RunSuite(respelled, WithCache(cache), WithResultCache(rc))
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range res3.Entries {
		if !er.CacheHit {
			t.Fatalf("%s: explicit-defaults respelling missed the cache", er.Name)
		}
	}
}

// TestSuiteResultCacheErrorsNotCached pins the failure rule: a failing
// entry is never stored, so a rerun retries it.
func TestSuiteResultCacheErrorsNotCached(t *testing.T) {
	RegisterDataset(DatasetDef{
		Name: "resultcache-failing-dataset",
		Load: func(scale, seed int64) (*Graph, error) {
			return nil, fmt.Errorf("synthetic load failure")
		},
	})
	suite := Suite{Entries: []SuiteEntry{
		{Name: "boom", Scenario: Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "resultcache-failing-dataset", Scale: 20000, Nodes: 1}},
	}}
	rc := mustResultCache(t, 8)
	for round := 0; round < 2; round++ {
		res, err := RunSuite(suite, WithResultCache(rc))
		if err != nil {
			t.Fatal(err)
		}
		er := res.Entries[0]
		if er.Err == nil || er.CacheHit {
			t.Fatalf("round %d: err=%v hit=%v", round, er.Err, er.CacheHit)
		}
	}
	if st := rc.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
}

// TestRewrittenFileMissesResultCache pins the content-digest part of the
// key: rewriting a file: dataset between runs must miss, not serve the
// old graph's result.
func TestRewrittenFileMissesResultCache(t *testing.T) {
	path := writeTempEdgeList(t, "0 1\n1 2\n2 0\n")
	sc := Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "file+edgelist:" + path, Nodes: 1}
	suite := Suite{Entries: []SuiteEntry{{Name: "f", Scenario: sc}}}
	rc := mustResultCache(t, 8)

	run := func(cache *DatasetCache) EntryResult {
		res, err := RunSuite(suite, WithCache(cache), WithResultCache(rc))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return res.Entries[0]
	}

	first := run(NewDatasetCache())
	rewriteFile(t, path, "0 1\n1 2\n2 3\n3 0\n")
	// Fresh dataset cache: a daemon restart or another host; the result
	// cache alone must not bridge the content change.
	second := run(NewDatasetCache())
	if second.CacheHit {
		t.Fatal("rewritten file served from result cache")
	}
	if second.Summary.AttrsDigest == first.Summary.AttrsDigest {
		t.Fatal("different graphs, same attrs digest")
	}
	// Same bytes again → hit.
	third := run(NewDatasetCache())
	if !third.CacheHit {
		t.Fatal("unchanged file missed result cache")
	}
}

// BenchmarkResultCacheHit is the serving-layer speedup measurement: one
// suite entry served from the result cache versus computed in full.
// The recorded number is BENCHMARK.json's gx.resultcache_get_ns.
func BenchmarkResultCacheHit(b *testing.B) {
	suite := Suite{Entries: []SuiteEntry{{
		Name:     "pr",
		Scenario: Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "orkut", Scale: 20000, Nodes: 2, Accel: "gpu", MaxIter: 5},
	}}}

	b.Run("cached", func(b *testing.B) {
		rc := mustResultCache(b, 8)
		cache := NewDatasetCache()
		if _, err := RunSuite(suite, WithCache(cache), WithResultCache(rc)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := RunSuite(suite, WithCache(cache), WithResultCache(rc))
			if err != nil {
				b.Fatal(err)
			}
			if !res.Entries[0].CacheHit {
				b.Fatal("miss")
			}
		}
	})

	b.Run("computed", func(b *testing.B) {
		cache := NewDatasetCache()
		if _, err := RunSuite(suite, WithCache(cache)); err != nil { // warm dataset cache only
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunSuite(suite, WithCache(cache)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
