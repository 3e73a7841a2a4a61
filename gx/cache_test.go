package gx

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gxplug/internal/graph"
)

func cacheTestGraph() *Graph {
	return graph.MustFromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 0, Weight: 1},
		{Src: 0, Dst: 2, Weight: 1}, {Src: 1, Dst: 3, Weight: 1},
	})
}

func mustPartitioning(t *testing.T, c *DatasetCache, g *Graph, engine string, nodes int) *Partitioning {
	t.Helper()
	p, err := c.Partitioning(g, engine, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// One build per (graph, engine, nodes) key; repeats share the instance,
// and the engine and the node count are each part of the key.
func TestDatasetCachePartitionKeys(t *testing.T) {
	g, c := cacheTestGraph(), NewDatasetCache()
	a := mustPartitioning(t, c, g, "graphx", 2)
	if mustPartitioning(t, c, g, "graphx", 2) != a {
		t.Fatal("repeated key returned a different partitioning")
	}
	if a.NumNodes() != 2 {
		t.Fatalf("partitioning has %d nodes", a.NumNodes())
	}
	if mustPartitioning(t, c, g, "powergraph", 2) == a {
		t.Fatal("engine not part of the key")
	}
	if mustPartitioning(t, c, g, "graphx", 3) == a {
		t.Fatal("node count not part of the key")
	}
	if _, err := c.Partitioning(g, "no-such-engine", 2); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if st := c.Stats(); st.PartitionBuilds != 3 || st.PartitionHits != 1 {
		t.Fatalf("stats %+v, want 3 builds / 1 hit", st)
	}
}

// Two structurally identical graphs are distinct keys: identity, not
// topology, addresses the partition table.
func TestDatasetCachePartitionsKeyedByInstance(t *testing.T) {
	c := NewDatasetCache()
	if mustPartitioning(t, c, cacheTestGraph(), "graphx", 2) == mustPartitioning(t, c, cacheTestGraph(), "graphx", 2) {
		t.Fatal("distinct graph instances shared an entry")
	}
	if st := c.Stats(); st.PartitionBuilds != 2 {
		t.Fatalf("%d builds for two instances", st.PartitionBuilds)
	}
}

// Concurrent first requests for one partitioning build it once and all
// receive the identical, valid instance.
func TestDatasetCachePartitionsSingleFlight(t *testing.T) {
	g, c := cacheTestGraph(), NewDatasetCache()
	const callers = 12
	out := make([]*Partitioning, callers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], _ = c.Partitioning(g, "powergraph", 3)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if out[i] != out[0] {
			t.Fatalf("caller %d got a different partitioning", i)
		}
	}
	if st := c.Stats(); st.PartitionBuilds != 1 || st.PartitionHits != callers-1 {
		t.Fatalf("stats %+v under contention", st)
	}
	if err := out[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

// Purge drops loaded graphs and zeroes the counters: the next request
// for the same dataset key loads a new instance.
func TestDatasetCachePurgeRebuildsGraphs(t *testing.T) {
	c := NewDatasetCache()
	g, err := c.Graph("orkut", 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("purge left stats %+v", st)
	}
	g2, err := c.Graph("orkut", 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g2 == g {
		t.Fatal("purged cache returned the old graph")
	}
	if st := c.Stats(); st.GraphLoads != 1 || st.GraphHits != 0 {
		t.Fatalf("stats %+v after purge, want 1 load / 0 hits", st)
	}
}

// Purge drops partitionings too, even of a graph the caller still holds:
// the next request for the same key builds a new instance.
func TestDatasetCachePurgeDropsPartitions(t *testing.T) {
	g, c := cacheTestGraph(), NewDatasetCache()
	p := mustPartitioning(t, c, g, "graphx", 2)
	c.Purge()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("purge left stats %+v", st)
	}
	if mustPartitioning(t, c, g, "graphx", 2) == p {
		t.Fatal("purged cache returned the old partitioning")
	}
	if st := c.Stats(); st.PartitionBuilds != 1 || st.PartitionHits != 0 {
		t.Fatalf("stats %+v after purge, want 1 build / 0 hits", st)
	}
}

var failingLoaders atomic.Int64

// A registered dataset's load error is memoized: loads are deterministic,
// so the second request fails identically without calling the loader.
func TestDatasetCacheMemoizesLoadErrors(t *testing.T) {
	name := fmt.Sprintf("test-fails-%d", failingLoaders.Add(1))
	var calls atomic.Int64
	RegisterDataset(DatasetDef{Name: name, Load: func(scale, seed int64) (*Graph, error) {
		calls.Add(1)
		return nil, errors.New("synthetic load failure")
	}})
	c := NewDatasetCache()
	for i := 0; i < 2; i++ {
		if _, err := c.Graph(name, 20000, 0); err == nil {
			t.Fatalf("request %d: load error lost", i)
		}
	}
	if n, st := calls.Load(), c.Stats(); n != 1 || st.GraphLoads != 1 || st.GraphHits != 1 {
		t.Fatalf("loader calls=%d, stats %+v; want 1 call, 1 load, 1 hit", n, st)
	}
}
