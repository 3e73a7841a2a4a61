package graph

import "gxplug/internal/memo"

// PartitionCache memoizes partition builds by (graph instance, strategy,
// node count). A Partitioning is read-only once built — engines and
// agents only ever read Masters/Edges/Internal and the routing index —
// so one instance can back any number of concurrent runs over the same
// immutable graph. Suite execution uses it so a batch of runs
// over one dataset partitions it once per (engine, nodes) pair instead
// of once per run. Builds are single-flight (see internal/memo).
//
// Keys use graph pointer identity: two structurally equal graphs loaded
// separately occupy separate entries. That is deliberate — the cache
// pairs with a dataset cache that already guarantees one instance per
// (dataset, scale, seed), and pointer identity keeps lookups O(1)
// without hashing topology.
type PartitionCache struct {
	t *memo.Table[partKey, *Partitioning]
}

type partKey struct {
	g        *Graph
	strategy string
	nodes    int
}

// PartitionCacheStats snapshots a cache's activity.
type PartitionCacheStats struct {
	// Hits counts Get calls answered by an existing entry.
	Hits int64
	// Builds counts build invocations — the number of distinct
	// (graph, strategy, nodes) keys ever requested.
	Builds int64
}

// NewPartitionCache returns an empty partition cache.
func NewPartitionCache() *PartitionCache {
	return &PartitionCache{t: memo.NewTable[partKey, *Partitioning]()}
}

// Get returns the memoized partitioning for (g, strategy, nodes),
// invoking build on first request. The strategy string names the
// builder (e.g. an engine name) so distinct partitioners over the same
// graph do not collide.
func (c *PartitionCache) Get(g *Graph, strategy string, nodes int, build func(*Graph, int) *Partitioning) *Partitioning {
	return c.t.Get(partKey{g: g, strategy: strategy, nodes: nodes}, func() *Partitioning {
		return build(g, nodes)
	})
}

// Stats returns a snapshot of the cache counters.
func (c *PartitionCache) Stats() PartitionCacheStats {
	s := c.t.Stats()
	return PartitionCacheStats{Hits: s.Hits, Builds: s.Entries}
}

// Purge drops every entry and zeroes the counters.
func (c *PartitionCache) Purge() { c.t.Purge() }
