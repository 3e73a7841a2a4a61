package gx

import (
	"fmt"
	"time"

	"gxplug/internal/memo"
)

// ResultSummary condenses one successful run into the fields a serving
// layer answers with: the bit-exact identity of the final attributes
// (digest plus the finite-count/sum report line), the iteration and
// virtual-time accounting, and the per-entry observer totals. Runs are
// deterministic, so a summary fully identifies the run's outcome — it
// is what [ResultCache] stores and what a cache hit serves without
// recomputing anything. The JSON form is the gxd wire format.
type ResultSummary struct {
	// AttrsDigest is [AttrsDigest] of the final attribute array.
	AttrsDigest string `json:"attrs_digest"`
	// FiniteAttrs and AttrsSum are the report-line digest of the final
	// attributes: the count and exact-order sum of the finite values.
	FiniteAttrs int     `json:"finite_attrs"`
	AttrsSum    float64 `json:"attrs_sum"`
	// Iterations and SkippedSyncs mirror the [Result] fields.
	Iterations   int `json:"iterations"`
	SkippedSyncs int `json:"skipped_syncs"`
	// Time is the cluster makespan; UpperTime and MiddlewareTime split
	// the summed per-node cost. All virtual.
	Time           time.Duration `json:"time"`
	UpperTime      time.Duration `json:"upper_time"`
	MiddlewareTime time.Duration `json:"middleware_time"`
	// Totals aggregates the run's per-superstep observer reports.
	Totals EntryTotals `json:"totals"`
	// Batches holds the per-boundary reports of a dynamic-graph run
	// (nil for static scenarios).
	Batches []BatchResult `json:"batches,omitempty"`
}

// Summarize builds the summary of a completed run from its result and
// aggregated observer totals.
func Summarize(res *Result, totals EntryTotals) ResultSummary {
	finite, sum := 0, 0.0
	for _, v := range res.Attrs {
		if v > 1e308 || v < -1e308 { // the repo-wide "infinite attribute" convention
			continue
		}
		sum += v
		finite++
	}
	return ResultSummary{
		AttrsDigest:    AttrsDigest(res.Attrs),
		FiniteAttrs:    finite,
		AttrsSum:       sum,
		Iterations:     res.Iterations,
		SkippedSyncs:   res.SkippedSyncs,
		Time:           res.Time,
		UpperTime:      res.UpperTime,
		MiddlewareTime: res.MiddlewareTime,
		Totals:         totals,
		Batches:        res.Batches,
	}
}

// ResultCache is a bounded LRU of run outcomes keyed by canonical
// scenario digest (see [Scenario.Digest]; the executor folds `file:`
// dataset content digests into the key). Because runs are
// bit-deterministic, a hit is exact: the cached summary is the one the
// run would recompute, so a serving layer answers repeat submissions
// with zero engine supersteps. Only successful declarative runs are
// cached — errors are never stored, and runs carrying functional
// options never reach the cache at all.
//
// Safe for concurrent use; one process-wide instance can back any
// number of suites and served requests.
type ResultCache struct {
	t        *memo.Table[string, ResultSummary]
	capacity int
}

// ResultCacheStats snapshots a ResultCache's activity.
type ResultCacheStats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Evictions counts entries dropped to stay within capacity.
	Evictions int64
	// Entries is the current resident count.
	Entries int
	// Capacity is the configured bound.
	Capacity int
}

// NewResultCache returns an empty result cache bounded to capacity
// entries (capacity ≥ 1; a summary is a few hundred bytes, so even
// generous bounds are cheap).
func NewResultCache(capacity int) (*ResultCache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("gx: result cache capacity %d (want ≥ 1)", capacity)
	}
	return &ResultCache{t: memo.NewTable[string, ResultSummary](capacity), capacity: capacity}, nil
}

// Get returns the cached summary for key, marking it most recently used.
func (c *ResultCache) Get(key string) (ResultSummary, bool) { return c.t.Lookup(key) }

// Put stores the summary for key, evicting the least recently used
// entry if the cache is full. Storing an existing key refreshes it.
func (c *ResultCache) Put(key string, sum ResultSummary) { c.t.Put(key, sum) }

// Stats returns a snapshot of the cache counters.
func (c *ResultCache) Stats() ResultCacheStats {
	s := c.t.Stats()
	return ResultCacheStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		Entries: int(s.Entries), Capacity: c.capacity,
	}
}

// Purge drops every entry and zeroes the counters.
func (c *ResultCache) Purge() { c.t.Purge() }
