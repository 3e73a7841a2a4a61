// Package memo provides the repository's one keyed store: a
// concurrency-safe table behind the dataset, file, partition, planner and
// result caches. It exists so those caches share one implementation of
// the lock/lookup/build dance, of LRU eviction, and of their accounting.
package memo

import "sync"

// Table maps keys to values. Get memoizes a build per key and is
// single-flight: when several goroutines ask for the same missing key at
// once, one builds while the rest block on the same entry, then all
// receive the identical value. A build that panics memoizes nothing: the
// builder and every caller blocked on it panic with its value, and the
// next Get builds again.
//
// A table made with a positive capacity holds at most that many entries
// and evicts the least recently used one (Get, Lookup and Put each count
// as a use); a table of capacity 0 keeps every entry until Drop or Purge
// and does no recency bookkeeping. An entry's value never changes once
// built — Put of a present key installs a new entry — so V should be
// immutable (or an immutable result wrapper).
type Table[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*entry[K, V]
	// lru is the sentinel of a bounded table's recency ring: lru.next is
	// the most recently used entry, lru.prev the next to be evicted.
	lru                     entry[K, V]
	hits, misses, evictions int64
}

type entry[K comparable, V any] struct {
	key        K
	prev, next *entry[K, V]
	built      sync.WaitGroup // held while the build is in flight
	v          V
	failed     bool // the build panicked with pv
	pv         any
}

// Stats snapshots a table's activity.
type Stats struct {
	// Hits counts Get and Lookup calls that found an entry — including
	// callers that blocked on a build still in flight.
	Hits int64
	// Misses counts calls that found none: Gets that built, Lookups
	// that came back empty.
	Misses int64
	// Evictions counts entries a bounded table dropped to stay within
	// its capacity.
	Evictions int64
	// Entries counts the keys currently held.
	Entries int64
}

// NewTable returns an empty table holding at most capacity entries, or
// any number when capacity is 0.
func NewTable[K comparable, V any](capacity int) *Table[K, V] {
	t := &Table[K, V]{capacity: capacity}
	t.reset()
	return t
}

// Get returns the memoized value for key, invoking build on first
// request. Safe for concurrent use; build runs without the table lock
// held, so builds for distinct keys proceed in parallel.
func (t *Table[K, V]) Get(key K, build func() V) V {
	t.mu.Lock()
	e, ok := t.find(key)
	if !ok {
		e = t.insert(key)
		e.built.Add(1)
	}
	t.mu.Unlock()
	if ok {
		return e.wait()
	}
	t.fill(e, build)
	return e.v
}

// Lookup returns the value held for key without building one. A key
// whose build is in flight is shared like a Get: Lookup waits for it.
func (t *Table[K, V]) Lookup(key K) (V, bool) {
	t.mu.Lock()
	e, ok := t.find(key)
	t.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	return e.wait(), true
}

// Put stores v under key as the most recently used entry, replacing any
// entry the key had; a build still in flight for it hands its own value
// to the callers already waiting on it.
func (t *Table[K, V]) Put(key K, v V) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.entries[key]; ok {
		t.remove(old)
	}
	t.insert(key).v = v
}

// Drop removes one key so the next Get rebuilds it. Callers use it to
// keep transient failures from being memoized forever: a Get whose
// result turns out to be an error can Drop the key and still return
// that error, giving every in-flight waiter the failed attempt's result
// while later requests retry. Dropping a key that is absent (or already
// dropped by a concurrent waiter) is a no-op.
func (t *Table[K, V]) Drop(key K) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		t.remove(e)
	}
}

// Stats returns a snapshot of the table counters.
func (t *Table[K, V]) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Hits: t.hits, Misses: t.misses, Evictions: t.evictions, Entries: int64(len(t.entries))}
}

// Purge drops every entry and zeroes the counters.
func (t *Table[K, V]) Purge() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reset()
}

func (t *Table[K, V]) reset() {
	t.entries = make(map[K]*entry[K, V])
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	t.hits, t.misses, t.evictions = 0, 0, 0
}

// fill runs build into e, which this caller inserted. If build panics,
// e leaves the table and every waiter is handed the panic, then the
// panic continues here.
func (t *Table[K, V]) fill(e *entry[K, V], build func() V) {
	ok := false
	defer func() {
		if ok {
			return
		}
		e.pv, e.failed = recover(), true
		t.mu.Lock()
		t.remove(e)
		t.mu.Unlock()
		e.built.Done()
		if e.pv != nil { // nil: build called runtime.Goexit, which goes on
			panic(e.pv)
		}
	}()
	e.v = build()
	ok = true
	e.built.Done()
}

// wait returns e's value once it is built, or panics as its build did.
func (e *entry[K, V]) wait() V {
	e.built.Wait()
	if e.failed {
		panic(e.pv)
	}
	return e.v
}

// find returns key's entry, counting the hit or miss and making a found
// entry the most recently used. The caller holds t.mu.
func (t *Table[K, V]) find(key K) (*entry[K, V], bool) {
	e, ok := t.entries[key]
	if ok {
		t.hits++
		t.touch(e)
	} else {
		t.misses++
	}
	return e, ok
}

// insert adds a fresh entry for key — the most recently used one — and
// evicts the least recently used if that takes a bounded table past its
// capacity. The caller holds t.mu and has checked key is absent.
func (t *Table[K, V]) insert(key K) *entry[K, V] {
	e := &entry[K, V]{key: key}
	t.entries[key] = e
	if t.capacity > 0 {
		t.pushFront(e)
		if len(t.entries) > t.capacity {
			t.remove(t.lru.prev)
			t.evictions++
		}
	}
	return e
}

// remove takes e out of the table unless its key has moved on to another
// entry (a Put, Drop, eviction or Purge got there first).
func (t *Table[K, V]) remove(e *entry[K, V]) {
	if t.entries[e.key] != e {
		return
	}
	delete(t.entries, e.key)
	if t.capacity > 0 {
		e.prev.next, e.next.prev = e.next, e.prev
	}
}

// touch makes e the most recently used entry of a bounded table.
func (t *Table[K, V]) touch(e *entry[K, V]) {
	if t.capacity > 0 && t.lru.next != e {
		e.prev.next, e.next.prev = e.next, e.prev
		t.pushFront(e)
	}
}

func (t *Table[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &t.lru, t.lru.next
	e.prev.next, e.next.prev = e, e
}
