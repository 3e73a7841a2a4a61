package harness

import (
	"fmt"
	"strings"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/gxplug"
)

// Cache-capacity sweep (Fig 11a-adjacent): the paper's synchronization
// cache is "organized in a least recently used manner" — bounded, with
// eviction part of the design — but Fig 11a only compares caching on/off
// at full capacity. This sweep walks the capacity axis: runtime, hit
// rate, evictions and dirty spills of SSSP-BF on PowerGraph+GPU as the
// per-agent cache shrinks from the full vertex table to 1/8 of a node's
// share. Results are bit-identical across the whole sweep (bounding the
// cache trades boundary traffic for memory, never values); hit rate is
// non-decreasing in capacity.

// cacheCapPoints lists the swept capacity fractions, smallest first. One
// structure carries both label and denominator so the two cannot drift.
var cacheCapPoints = []struct {
	Label string
	Den   int
}{{"1/8", 8}, {"1/4", 4}, {"1/2", 2}, {"1", 1}}

// CacheCapResult holds one row per capacity fraction.
type CacheCapResult struct {
	Entries []CacheCapEntry
}

// CacheCapEntry is one sweep point.
type CacheCapEntry struct {
	// Fraction is the capacity as a fraction of a node's vertex-table
	// share ("1" runs unbounded: the cache sized to the full table).
	Fraction string
	// Capacity is the per-agent row bound handed to the engine (0 for
	// the unbounded point).
	Capacity int
	Time     time.Duration
	// HitRate is cache hits over hits+misses, summed over all agents.
	HitRate float64
	// Evictions counts capacity evictions only (remote invalidations
	// excluded — those happen regardless of the bound and would drown the
	// capacity-pressure signal); DirtySpills likewise. Both summed over
	// all agents.
	Evictions   int64
	DirtySpills int64
}

// CacheCapSweep measures the capacity/hit-rate trade-off on Orkut with
// the Fig 11a workload (SSSP-BF, PowerGraph+GPU, 4 nodes).
func CacheCapSweep(o Options) (*CacheCapResult, error) {
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	const nodes = 4
	res := &CacheCapResult{}
	for _, point := range cacheCapPoints {
		capRows := 0 // "1": size to the node's table (unbounded)
		if point.Den > 1 {
			capRows = g.NumVertices() / (point.Den * nodes)
			if capRows < 1 {
				capRows = 1
			}
		}
		alg := algos.NewSSSPBF(algos.DefaultSources(g.NumVertices()))
		plug := GPUPlug(o.Scale, 1)
		plug.CacheCapacity = capRows
		run, err := powergraph.Run(engine.Config{
			Nodes: nodes, Graph: g, Alg: alg,
			Plug: []gxplug.Options{plug},
		})
		if err != nil {
			return nil, err
		}
		e := CacheCapEntry{Fraction: point.Label, Capacity: capRows, Time: run.Time}
		var hits, misses int64
		for _, as := range run.AgentStats {
			hits += as.CacheHits
			misses += as.CacheMisses
			e.Evictions += as.CacheEvictions - as.CacheInvalidations
			e.DirtySpills += as.DirtySpills
		}
		if hits+misses > 0 {
			e.HitRate = float64(hits) / float64(hits+misses)
		}
		res.Entries = append(res.Entries, e)
	}
	return res, nil
}

// String renders the sweep.
func (r *CacheCapResult) String() string {
	var b strings.Builder
	header(&b, "Cache capacity sweep @ Orkut (SSSP-BF, PowerGraph+GPU)",
		"Capacity", "Rows/agent", "Time", "Hit rate", "CapEvictions", "DirtySpills")
	for _, e := range r.Entries {
		rows := fmt.Sprintf("%d", e.Capacity)
		if e.Capacity == 0 {
			rows = "full table"
		}
		fmt.Fprintf(&b, "%-16s%-16s%-16s%-16s%-16d%-16d\n",
			e.Fraction, rows, seconds(e.Time), fmt.Sprintf("%.1f%%", 100*e.HitRate),
			e.Evictions, e.DirtySpills)
	}
	return b.String()
}
