// Package synccache implements the inter-iteration synchronization
// caching of §III-B2: which rows of an agent's vertex table currently
// hold authoritative values (so the upper system need not be asked
// again), which of them were updated locally and not yet uploaded, and
// the global query queue that drives lazy uploading.
//
// The paper describes the cache as "organized in a least recently used
// manner"; its prose about weights is self-contradictory (weights both
// increase on use and the highest-weight entry is evicted), so this
// implementation normalizes to standard LRU semantics — evict the least
// recently used entry — which matches the section title and the stated
// intent.
package synccache

import (
	"fmt"
	"iter"
	"math"
	"slices"

	"gxplug/internal/graph"
)

// Stats counts cache activity since the owner last took it (TakeStats).
type Stats struct {
	Hits   int64
	Misses int64
	// Evictions counts every row dropped from the cache before the owner
	// let go of it: LRU capacity evictions and invalidations alike.
	// Evictions - Invalidations isolates capacity pressure.
	Evictions int64
	// Invalidations counts the subset of Evictions forced by remote
	// updates (Invalidate) rather than capacity; it is non-zero even for
	// unbounded caches under vertex-cut partitioning.
	Invalidations int64
}

const (
	resident uint8 = 1 << iota
	dirty
)

// Store is a fixed-capacity LRU over the rows of one vertex table. It
// holds no attribute values: the table row is the cached value, and the
// store only says whether that value may be trusted (resident), whether
// it still has to be uploaded (dirty), and which resident row was used
// least recently. A store that holds the whole table never evicts for
// room, so it keeps no recency order: its list stays empty. Rows are
// addressed by table index; everything is allocated by New.
type Store struct {
	cap, n     int
	head, tail int32 // most and least recently used resident row, -1 when none
	prev, next []int32
	state      []uint8
	stats      Stats
}

// New creates the store for a table of the given row count, holding at
// most capacity of them. A capacity that is not positive, or exceeds the
// table, means the whole table: no row is ever evicted for room.
func New(rows, capacity int) *Store {
	if rows < 0 || rows > math.MaxInt32 {
		panic(fmt.Sprintf("synccache: %d table rows", rows))
	}
	if capacity <= 0 || capacity > rows {
		capacity = rows
	}
	return &Store{
		cap: capacity, head: -1, tail: -1,
		prev: make([]int32, rows), next: make([]int32, rows),
		state: make([]uint8, rows),
	}
}

// TakeStats returns the counts since the previous call and starts them
// over.
func (s *Store) TakeStats() Stats {
	st := s.stats
	s.stats = Stats{}
	return st
}

// Bounded reports whether the store cannot hold the whole table.
func (s *Store) Bounded() bool { return s.cap < len(s.state) }

// Get reports whether row is resident, counting a hit or a miss and
// making a hit the most recently used row.
func (s *Store) Get(row int) bool {
	if s.state[row]&resident == 0 {
		s.stats.Misses++
		return false
	}
	s.stats.Hits++
	s.touch(row)
	return true
}

// Resident reports whether row is resident without touching the LRU
// order or the hit/miss counters — for bookkeeping reads that are not
// part of the computation.
func (s *Store) Resident(row int) bool { return s.state[row]&resident != 0 }

// Put records that row now holds authoritative data from the upper
// system: it becomes resident, clean — a fresh download supersedes a
// pending local update, which would otherwise be re-uploaded at flush —
// and most recently used. When that takes the room of another row, Put
// returns the least recently used row it evicted and whether the caller
// still has to upload it; victim is -1 otherwise.
func (s *Store) Put(row int) (victim int, victimDirty bool) {
	victim = -1
	if s.state[row]&resident != 0 {
		s.state[row] = resident
		s.touch(row)
		return victim, false
	}
	if s.n >= s.cap {
		victim = int(s.tail)
		victimDirty = s.state[victim]&dirty != 0
		s.drop(victim)
	}
	s.state[row] = resident
	s.pushFront(row)
	s.n++
	return victim, victimDirty
}

// Update marks a resident row dirty (updated locally, not yet uploaded)
// and most recently used. It reports whether the row was resident.
func (s *Store) Update(row int) bool {
	if s.state[row]&resident == 0 {
		return false
	}
	s.state[row] |= dirty
	s.touch(row)
	return true
}

// Invalidate drops row (a remote node updated the vertex, so the local
// value is stale). Dirty state is discarded — the remote value
// supersedes the local one — but the drop is still counted: an
// invalidation is an eviction the agent did not choose.
func (s *Store) Invalidate(row int) {
	if s.state[row]&resident != 0 {
		s.stats.Invalidations++
		s.drop(row)
	}
}

// Dirty yields the dirty rows in ascending row order. This is the
// agent's contribution to lazy uploading: dirty rows are uploaded only
// when queried, or at flush. The row yielded may be marked clean inside
// the loop.
func (s *Store) Dirty() iter.Seq[int] {
	return func(yield func(int) bool) {
		for row, st := range s.state {
			if st&dirty != 0 && !yield(row) {
				return
			}
		}
	}
}

// MarkClean clears row's dirty flag after an upload.
func (s *Store) MarkClean(row int) { s.state[row] &^= dirty }

// Clear empties the store. The owner is letting go of rows it has
// already flushed, so nothing is counted.
func (s *Store) Clear() {
	clear(s.state)
	s.n, s.head, s.tail = 0, -1, -1
}

// drop evicts a resident row and counts it.
func (s *Store) drop(row int) {
	s.stats.Evictions++
	s.unlink(row)
	s.state[row] = 0
	s.n--
}

func (s *Store) touch(row int) {
	if s.Bounded() && int(s.head) != row {
		s.unlink(row)
		s.pushFront(row)
	}
}

func (s *Store) unlink(row int) {
	if !s.Bounded() {
		return
	}
	p, n := s.prev[row], s.next[row]
	if p >= 0 {
		s.next[p] = n
	} else {
		s.head = n
	}
	if n >= 0 {
		s.prev[n] = p
	} else {
		s.tail = p
	}
}

func (s *Store) pushFront(row int) {
	if !s.Bounded() {
		return
	}
	s.prev[row], s.next[row] = -1, s.head
	if s.head >= 0 {
		s.prev[s.head] = int32(row)
	} else {
		s.tail = int32(row)
	}
	s.head = int32(row)
}

// QueryQueue is the global query queue of lazy uploading (§III-B2b):
// every agent pushes the vertex IDs it will need next iteration; the
// union is broadcast; each agent answers with the dirty vertices it owns
// that appear in the union. The ids are kept sorted, so the queue's
// contents never depend on the order they were pushed in.
type QueryQueue struct {
	ids []graph.VertexID
}

// NewQueryQueue creates an empty queue.
func NewQueryQueue() *QueryQueue { return &QueryQueue{} }

// Reset empties the queue for reuse.
func (q *QueryQueue) Reset() { q.ids = q.ids[:0] }

// Push adds one agent's needed vertices.
func (q *QueryQueue) Push(ids []graph.VertexID) {
	q.ids = append(q.ids, ids...)
	slices.Sort(q.ids)
	q.ids = slices.Compact(q.ids)
}

// Len returns the number of distinct queried vertices.
func (q *QueryQueue) Len() int { return len(q.ids) }

// Has reports whether a vertex is queried — one an agent must upload
// to the global data queue if it holds it dirty.
func (q *QueryQueue) Has(id graph.VertexID) bool {
	_, ok := slices.BinarySearch(q.ids, id)
	return ok
}
