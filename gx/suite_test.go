package gx

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// suiteSixEntries is the shared test batch: six entries over two
// distinct (dataset, scale, seed) triples and three distinct
// (graph, engine, nodes) partitionings, mixing engines, algorithms and
// native/plugged execution.
func suiteSixEntries() Suite {
	return Suite{
		Name: "six",
		Entries: []SuiteEntry{
			{Name: "pr-pg", Scenario: Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "orkut", Scale: 20000, Nodes: 3}},
			{Name: "sssp-pg", Scenario: Scenario{Engine: "powergraph", Algorithm: "sssp", Dataset: "orkut", Scale: 20000, Nodes: 3, Accel: "cpu"}},
			{Name: "cc-gx", Scenario: Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "orkut", Scale: 20000, Nodes: 3}},
			{Name: "pr-gx-wrn", Scenario: Scenario{Engine: "graphx", Algorithm: "pagerank", Dataset: "wrn", Scale: 20000, Nodes: 2, Accel: "cpu"}},
			{Name: "kcore-pg", Scenario: Scenario{Engine: "powergraph", Algorithm: "kcore", Dataset: "orkut", Scale: 20000, Nodes: 3, Accel: "cpu"}},
			{Name: "bfs-gx", Scenario: Scenario{Engine: "graphx", Algorithm: "bfs", Dataset: "orkut", Scale: 20000, Nodes: 3}},
		},
	}
}

// TestSuiteJSONRoundTrip: suites round-trip through JSON exactly, with
// entry scenario fields inlined next to the name.
func TestSuiteJSONRoundTrip(t *testing.T) {
	s := suiteSixEntries()
	s.Entries[0].Opt = NoOptimizations()
	s.Entries[1].Params = AlgoParams{Sources: []int64{0, 5}}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSuite(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the suite:\n%+v\nvs\n%+v", s, back)
	}
	if !strings.Contains(string(data), `"name": "pr-pg"`) || !strings.Contains(string(data), `"engine": "powergraph"`) {
		t.Fatalf("entry JSON not inlined:\n%s", data)
	}
	// Typos fail loudly, exactly like scenario files.
	if _, err := ParseSuite([]byte(`{"entries": [{"nme": "x"}]}`)); err == nil {
		t.Fatal("unknown entry field accepted")
	}
}

// TestSuiteValidate: empty suites, duplicate names and invalid entry
// scenarios are all reported, each prefixed with the entry it belongs to.
func TestSuiteValidate(t *testing.T) {
	if err := (Suite{}).Validate(); err == nil || !strings.Contains(err.Error(), "no entries") {
		t.Fatalf("empty suite: %v", err)
	}
	dup := Suite{Entries: []SuiteEntry{
		{Name: "same", Scenario: Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "orkut", Nodes: 1}},
		{Name: "same", Scenario: Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "orkut", Nodes: 1}},
	}}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), `duplicate entry name "same"`) {
		t.Fatalf("duplicate names: %v", err)
	}
	bad := Suite{Entries: []SuiteEntry{
		{Name: "broken", Scenario: Scenario{Engine: "giraph", Algorithm: "pagerank", Dataset: "orkut", Nodes: 1}},
	}}
	err := bad.Validate()
	if err == nil || !strings.Contains(err.Error(), `suite entry "broken"`) || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("bad entry: %v", err)
	}
	// Unnamed entries default deterministically and validate.
	anon := Suite{Entries: []SuiteEntry{
		{Scenario: Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "orkut", Nodes: 1}},
	}}
	if err := anon.Validate(); err != nil {
		t.Fatalf("anonymous entry rejected: %v", err)
	}
	if got := anon.WithDefaults().Entries[0].Name; got != "entry-00" {
		t.Fatalf("default name %q", got)
	}
}

// TestSuiteSingleLoadPerDistinctDataset is the cache-hit counter
// guarantee: K entries over D distinct (dataset, scale, seed) triples
// perform exactly D generator loads and one partitioning build per
// distinct (graph, engine, nodes).
func TestSuiteSingleLoadPerDistinctDataset(t *testing.T) {
	res, err := RunSuite(suiteSixEntries())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// Six entries, two distinct triples: (orkut,20000,0) × 5, (wrn,20000,0).
	if res.Cache.GraphLoads != 2 {
		t.Fatalf("%d graph loads for 2 distinct datasets", res.Cache.GraphLoads)
	}
	if res.Cache.GraphHits != 4 {
		t.Fatalf("%d graph hits for 6 entries over 2 datasets", res.Cache.GraphHits)
	}
	// Distinct partitionings: (orkut,powergraph,3), (orkut,graphx,3), (wrn,graphx,2).
	if res.Cache.PartitionBuilds != 3 {
		t.Fatalf("%d partition builds, want 3", res.Cache.PartitionBuilds)
	}
	if res.Cache.PartitionHits != 3 {
		t.Fatalf("%d partition hits, want 3", res.Cache.PartitionHits)
	}
}

// TestSuiteMatchesSerialRuns: every suite entry is bit-identical — attrs
// and virtual makespan — to running its scenario alone through Run.
// Inter-run concurrency and cache sharing must not leak into results.
func TestSuiteMatchesSerialRuns(t *testing.T) {
	suite := suiteSixEntries()
	res, err := RunSuite(suite, WithPool(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range suite.WithDefaults().Entries {
		solo, err := Run(e.Scenario)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		got := res.Entries[i]
		if got.Err != nil {
			t.Fatalf("%s: %v", e.Name, got.Err)
		}
		if got.Result.Time != solo.Time || got.Result.Iterations != solo.Iterations {
			t.Fatalf("%s: suite run %v/%d iters, solo %v/%d",
				e.Name, got.Result.Time, got.Result.Iterations, solo.Time, solo.Iterations)
		}
		for j := range solo.Attrs {
			if got.Result.Attrs[j] != solo.Attrs[j] {
				t.Fatalf("%s: attrs diverge at %d", e.Name, j)
			}
		}
	}
}

// TestSuiteConcurrencyDeterminism is the inter-run determinism pin
// (race-pinned via make ci's race-suite step): the same suite at pool
// sizes 1 and N produces identical per-entry results, virtual makespans
// and totals, in identical order.
func TestSuiteConcurrencyDeterminism(t *testing.T) {
	suite := suiteSixEntries()
	serial, err := RunSuite(suite, WithPool(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunSuite(suite, WithPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Entries) != len(wide.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(serial.Entries), len(wide.Entries))
	}
	for i := range serial.Entries {
		a, b := serial.Entries[i], wide.Entries[i]
		if a.Name != b.Name {
			t.Fatalf("entry %d order differs: %q vs %q", i, a.Name, b.Name)
		}
		if (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("%s: error only at one pool size: %v vs %v", a.Name, a.Err, b.Err)
		}
		if a.Err != nil {
			t.Fatalf("%s failed at both pool sizes: %v", a.Name, a.Err)
		}
		if a.Result.Time != b.Result.Time {
			t.Fatalf("%s: makespan differs across pool sizes: %v vs %v", a.Name, a.Result.Time, b.Result.Time)
		}
		if a.Result.Iterations != b.Result.Iterations || a.Result.SkippedSyncs != b.Result.SkippedSyncs {
			t.Fatalf("%s: iteration accounting differs", a.Name)
		}
		if a.Totals != b.Totals {
			t.Fatalf("%s: totals differ:\n%+v\nvs\n%+v", a.Name, a.Totals, b.Totals)
		}
		for j := range a.Result.Attrs {
			if a.Result.Attrs[j] != b.Result.Attrs[j] {
				t.Fatalf("%s: attrs diverge at %d", a.Name, j)
			}
		}
	}
	if serial.Cache != wide.Cache {
		t.Fatalf("cache accounting differs: %+v vs %+v", serial.Cache, wide.Cache)
	}
}

// TestSuiteEntryDoneOrdered: the streaming callback fires exactly once
// per entry, in suite order, even with a wide pool.
func TestSuiteEntryDoneOrdered(t *testing.T) {
	suite := suiteSixEntries()
	var order []string
	res, err := RunSuite(suite, WithPool(6), WithEntryDone(func(er EntryResult) {
		order = append(order, er.Name)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(suite.Entries) {
		t.Fatalf("%d callbacks for %d entries", len(order), len(suite.Entries))
	}
	for i, e := range suite.Entries {
		if order[i] != e.Name {
			t.Fatalf("callback %d is %q, want %q (order %v)", i, order[i], e.Name, order)
		}
	}
	if res.Entries[0].Name != suite.Entries[0].Name {
		t.Fatal("results not in suite order")
	}
}

// TestSuiteObserverAggregation: per-entry totals roll up exactly what a
// per-superstep observer sees, and the suite observer is serialized.
func TestSuiteObserverAggregation(t *testing.T) {
	suite := suiteSixEntries()
	perEntry := make(map[string]*EntryTotals)
	inCallback := false
	res, err := RunSuite(suite, WithPool(4), WithSuiteObserver(func(entry string, st Superstep) {
		if inCallback {
			t.Error("suite observer re-entered concurrently")
		}
		inCallback = true
		tot := perEntry[entry]
		if tot == nil {
			tot = &EntryTotals{}
			perEntry[entry] = tot
		}
		tot.Add(st)
		inCallback = false
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range res.Entries {
		if er.Err != nil {
			t.Fatalf("%s: %v", er.Name, er.Err)
		}
		if er.Totals.Supersteps != er.Result.Iterations {
			t.Fatalf("%s: %d superstep reports for %d iterations", er.Name, er.Totals.Supersteps, er.Result.Iterations)
		}
		if er.Totals.SkippedSyncs != er.Result.SkippedSyncs {
			t.Fatalf("%s: totals count %d skips, result %d", er.Name, er.Totals.SkippedSyncs, er.Result.SkippedSyncs)
		}
		seen := perEntry[er.Name]
		if seen == nil || *seen != er.Totals {
			t.Fatalf("%s: observer saw %+v, totals %+v", er.Name, seen, er.Totals)
		}
	}
}

// TestSuiteEntryErrorIsolation: a run-time entry failure is recorded on
// that entry and does not abort the rest of the suite.
func TestSuiteEntryErrorIsolation(t *testing.T) {
	RegisterDataset(DatasetDef{
		Name: "suite-test-failing-dataset",
		Load: func(scale, seed int64) (*Graph, error) {
			return nil, errors.New("synthetic load failure")
		},
	})
	suite := Suite{Entries: []SuiteEntry{
		{Name: "ok", Scenario: Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "orkut", Scale: 20000, Nodes: 2}},
		{Name: "boom", Scenario: Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "suite-test-failing-dataset", Scale: 20000, Nodes: 2}},
		{Name: "ok2", Scenario: Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "orkut", Scale: 20000, Nodes: 2}},
	}}
	res, err := RunSuite(suite, WithPool(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 1 {
		t.Fatalf("%d failed entries, want 1", res.Failed())
	}
	if res.Entries[1].Err == nil || res.Entries[1].Result != nil {
		t.Fatalf("failing entry: err=%v result=%v", res.Entries[1].Err, res.Entries[1].Result)
	}
	if res.Entries[0].Err != nil || res.Entries[2].Err != nil {
		t.Fatal("healthy entries affected by the failure")
	}
	joined := res.Err()
	if joined == nil || !strings.Contains(joined.Error(), `entry "boom"`) || !strings.Contains(joined.Error(), "synthetic load failure") {
		t.Fatalf("joined error: %v", joined)
	}
}

// TestSuiteSharedCache: WithCache extends reuse across RunSuite calls —
// the second suite over the same datasets loads nothing.
func TestSuiteSharedCache(t *testing.T) {
	cache := NewDatasetCache()
	if _, err := RunSuite(suiteSixEntries(), WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	first := cache.Stats()
	if first.GraphLoads != 2 {
		t.Fatalf("first suite loaded %d graphs", first.GraphLoads)
	}
	if _, err := RunSuite(suiteSixEntries(), WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	second := cache.Stats()
	if second.GraphLoads != first.GraphLoads {
		t.Fatalf("second suite loaded more graphs: %d -> %d", first.GraphLoads, second.GraphLoads)
	}
	if second.GraphHits != first.GraphHits+6 {
		t.Fatalf("second suite hit %d times, want %d", second.GraphHits-first.GraphHits, 6)
	}
}

// TestRunSuiteRejectsBadInput: invalid pools and invalid suites fail
// loudly before anything runs.
func TestRunSuiteRejectsBadInput(t *testing.T) {
	if _, err := RunSuite(suiteSixEntries(), WithPool(0)); err == nil {
		t.Fatal("pool 0 accepted")
	}
	if _, err := RunSuite(Suite{}); err == nil {
		t.Fatal("empty suite accepted")
	}
	bad := suiteSixEntries()
	bad.Entries[2].Engine = "giraph"
	_, err := RunSuite(bad)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("suite entry %q", "cc-gx")) {
		t.Fatalf("invalid entry not reported with its name: %v", err)
	}
}
