// The map + container/list cache the row-indexed Store replaced, kept as
// the reference implementation the model test and FuzzVertexStore check
// the Store against: same hits, misses, victims, dirty sets and spills
// for any operation sequence.
package synccache

import (
	"cmp"
	"container/list"
	"fmt"
	"slices"

	"gxplug/internal/graph"
)

// oracleStats is the old cache's counters (Stats plus DirtyOverwrites,
// which nothing outside tests ever read).
type oracleStats struct {
	Hits   int64
	Misses int64
	// Evictions counts every entry dropped from the cache before the
	// owner let go of it: LRU capacity evictions and invalidations alike.
	// Evictions - Invalidations isolates capacity pressure.
	Evictions int64
	// Invalidations counts the subset of Evictions forced by remote
	// updates (Invalidate) rather than capacity; it is non-zero even for
	// unbounded caches under vertex-cut partitioning.
	Invalidations int64
	// DirtyOverwrites counts Puts that replaced a dirty entry with
	// authoritative data — local updates conflated with a fresh download.
	DirtyOverwrites int64
}

type entry struct {
	id    graph.VertexID
	row   []float64
	dirty bool
	elem  *list.Element
}

// Cache is a fixed-capacity LRU of vertex attribute rows.
type Cache struct {
	cap    int
	stride int
	m      map[graph.VertexID]*entry
	lru    *list.List // front = most recent
	stats  oracleStats
}

// newOracle creates a cache holding at most capacity rows of the given stride.
func newOracle(capacity, stride int) *Cache {
	if capacity <= 0 || stride <= 0 {
		panic(fmt.Sprintf("synccache: capacity %d stride %d", capacity, stride))
	}
	return &Cache{
		cap:    capacity,
		stride: stride,
		m:      make(map[graph.VertexID]*entry, capacity),
		lru:    list.New(),
	}
}

// Len returns the resident entry count.
func (c *Cache) Len() int { return len(c.m) }

// takeStats returns the counts since the previous call and starts them
// over, as Store.TakeStats does.
func (c *Cache) takeStats() oracleStats {
	st := c.stats
	c.stats = oracleStats{}
	return st
}

// Get returns the cached row for id, counting a hit or miss. The returned
// slice aliases cache storage and stays valid until the entry is evicted.
func (c *Cache) Get(id graph.VertexID) ([]float64, bool) {
	e, ok := c.m[id]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(e.elem)
	return e.row, true
}

// Peek returns the cached row for id without touching the LRU order or
// the hit/miss counters. Bookkeeping reads — e.g. collecting dirty rows
// for a lazy upload — go through Peek so they neither distort the Fig
// 11a statistics nor promote entries the computation did not use.
func (c *Cache) Peek(id graph.VertexID) ([]float64, bool) {
	e, ok := c.m[id]
	if !ok {
		return nil, false
	}
	return e.row, true
}

// Evicted describes an entry pushed out by Put. The Row slice is the
// evicted entry's storage: the cache no longer references it, so the
// caller takes ownership.
type Evicted struct {
	ID    graph.VertexID
	Row   []float64
	Dirty bool
}

// PutResult reports the side effects of a Put.
type PutResult struct {
	// Evicted is the entry pushed out to make room; meaningful only when
	// DidEvict is set.
	Evicted  Evicted
	DidEvict bool
	// OverwroteDirty reports that id was already resident AND dirty: the
	// authoritative download replaced a local update that had not been
	// uploaded yet. The entry is clean afterwards — callers that meant to
	// keep the local value must re-Update.
	OverwroteDirty bool
}

// Put inserts or refreshes a row (copied) with authoritative data from
// the upper system. Put always leaves the entry clean: a fresh download
// supersedes whatever was cached, including a pending local update —
// refreshing over a dirty row would otherwise conflate locally-updated
// and clean state and force a spurious re-upload at flush. The result
// reports whether dirty data was overwritten and, if the cache was full,
// which least-recently-used entry was evicted so the agent can upload it
// if it was dirty.
func (c *Cache) Put(id graph.VertexID, row []float64) PutResult {
	if len(row) != c.stride {
		panic(fmt.Sprintf("synccache: row width %d, stride %d", len(row), c.stride))
	}
	var res PutResult
	if e, ok := c.m[id]; ok {
		copy(e.row, row)
		if e.dirty {
			e.dirty = false
			c.stats.DirtyOverwrites++
			res.OverwroteDirty = true
		}
		c.lru.MoveToFront(e.elem)
		return res
	}
	if len(c.m) >= c.cap {
		back := c.lru.Back()
		old := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.m, old.id)
		c.stats.Evictions++
		res.Evicted = Evicted{ID: old.id, Row: old.row, Dirty: old.dirty}
		res.DidEvict = true
	}
	e := &entry{id: id, row: append([]float64(nil), row...)}
	e.elem = c.lru.PushFront(e)
	c.m[id] = e
	return res
}

// Update overwrites the row of a cached entry with computation results
// and marks it dirty (updated locally, not yet uploaded to the upper
// system). It reports whether the entry was present.
func (c *Cache) Update(id graph.VertexID, row []float64) bool {
	e, ok := c.m[id]
	if !ok {
		return false
	}
	copy(e.row, row)
	e.dirty = true
	c.lru.MoveToFront(e.elem)
	return true
}

// Invalidate drops an entry (a remote node updated the vertex, so the
// cached copy is stale). Dirty state is discarded — the remote value
// supersedes the local one — but the drop is still counted: an
// invalidation is an eviction the agent did not choose, and the
// Evictions counter exists to count exactly these departures. It reports whether a dirty entry was discarded.
func (c *Cache) Invalidate(id graph.VertexID) (droppedDirty bool) {
	e, ok := c.m[id]
	if !ok {
		return false
	}
	c.lru.Remove(e.elem)
	delete(c.m, id)
	c.stats.Evictions++
	c.stats.Invalidations++
	return e.dirty
}

// Dirty returns the IDs of all dirty entries in ascending ID order.
// This is the agent's contribution to lazy uploading: dirty entries are
// uploaded only when queried (or at flush). The order is fixed so that
// everything downstream — the filter against the query queue, the
// upload batch, the boundary traffic it charges — is independent of
// map iteration order.
func (c *Cache) Dirty() []graph.VertexID {
	var out []graph.VertexID
	for id, e := range c.m {
		if e.dirty {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// MarkClean clears the dirty flag after an upload.
func (c *Cache) MarkClean(id graph.VertexID) {
	if e, ok := c.m[id]; ok {
		e.dirty = false
	}
}

// FlushDirty returns all dirty entries in ascending ID order and marks
// them clean — the end-of-run upload that makes the upper system's
// state authoritative again. Ordered for the same reason Dirty is: the
// flush batch must not depend on map iteration order.
func (c *Cache) FlushDirty() []Evicted {
	var out []Evicted
	for id, e := range c.m {
		if e.dirty {
			out = append(out, Evicted{ID: id, Row: e.row, Dirty: true})
			e.dirty = false
		}
	}
	slices.SortFunc(out, func(a, b Evicted) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
