package synccache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"gxplug/internal/graph"
)

func dirtyRows(s *Store) []int { return slices.Collect(s.Dirty()) }

func residentRows(s *Store) int {
	n := 0
	for row := range s.state {
		if s.Resident(row) {
			n++
		}
	}
	return n
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1, 1) accepted")
		}
	}()
	New(-1, 1)
}

// A capacity the table cannot fill is the table's: nothing the store
// allocates is sized by a number from outside.
func TestCapacityClampsToTable(t *testing.T) {
	for _, capacity := range []int{0, -3, 4, 5, 1 << 60} {
		s := New(4, capacity)
		if s.Bounded() {
			t.Fatalf("capacity %d over 4 rows reported bounded", capacity)
		}
		for row := 0; row < 4; row++ {
			if victim, _ := s.Put(row); victim != -1 {
				t.Fatalf("capacity %d: put of row %d evicted row %d", capacity, row, victim)
			}
		}
		if len(s.prev) != 4 || len(s.next) != 4 || len(s.state) != 4 {
			t.Fatalf("capacity %d sized the store: %d/%d/%d links and flags for 4 rows", capacity, len(s.prev), len(s.next), len(s.state))
		}
	}
	if !New(4, 3).Bounded() {
		t.Fatal("capacity 3 over 4 rows not reported bounded")
	}
}

func TestGetMissThenHit(t *testing.T) {
	s := New(8, 4)
	if s.Get(7) {
		t.Fatal("hit on empty cache")
	}
	s.Put(7)
	if !s.Get(7) {
		t.Fatal("miss after put")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	s := New(4, 2)
	s.Put(1)
	s.Put(2)
	s.Get(1) // 1 is now most recent; 2 is LRU
	if victim, _ := s.Put(3); victim != 2 {
		t.Fatalf("evicted row %d, want 2", victim)
	}
	if !s.Get(1) {
		t.Fatal("recently used row evicted")
	}
	if n := residentRows(s); n != 2 {
		t.Fatalf("%d resident rows", n)
	}
}

func TestPutExistingRefreshesNoEvict(t *testing.T) {
	s := New(2, 1)
	s.Put(1)
	if victim, _ := s.Put(1); victim != -1 {
		t.Fatalf("refreshing a row evicted row %d", victim)
	}
	if !s.Resident(1) || len(dirtyRows(s)) != 0 {
		t.Fatal("refresh lost the row or dirtied it")
	}
}

// Regression: a fresh authoritative download over a dirty row must clear
// the dirty flag — leaving it set conflates local-updated and clean state
// and causes a spurious re-upload at flush.
func TestPutOverDirtyClearsDirty(t *testing.T) {
	s := New(2, 2)
	s.Put(1)
	s.Update(1)
	if victim, _ := s.Put(1); victim != -1 { // authoritative refresh supersedes the update
		t.Fatalf("refresh evicted row %d", victim)
	}
	if d := dirtyRows(s); len(d) != 0 {
		t.Fatalf("Put left the refreshed row dirty: %v", d)
	}
	if !s.Get(1) {
		t.Fatal("refresh lost the row")
	}
	if st := s.Stats(); st.Evictions != 0 || st.DirtyEvictions != 0 {
		t.Fatalf("refresh counted as an eviction: %+v", st)
	}
}

func TestDirtyLifecycle(t *testing.T) {
	s := New(10, 4)
	s.Put(1)
	s.Put(2)
	if !s.Update(1) {
		t.Fatal("update of resident row failed")
	}
	if s.Update(9) {
		t.Fatal("update of absent row succeeded")
	}
	if d := dirtyRows(s); len(d) != 1 || d[0] != 1 {
		t.Fatalf("dirty = %v, want [1]", d)
	}
	s.MarkClean(1)
	if len(dirtyRows(s)) != 0 {
		t.Fatal("MarkClean left dirt")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	s := New(3, 1)
	s.Put(1)
	s.Update(1)
	if victim, dirty := s.Put(2); victim != 1 || !dirty {
		t.Fatalf("dirty eviction lost: victim %d dirty %v", victim, dirty)
	}
	if s.Stats().DirtyEvictions != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
	if victim, dirty := s.Put(0); victim != 2 || dirty {
		t.Fatalf("clean eviction: victim %d dirty %v", victim, dirty)
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	s := New(10, 2)
	s.Put(1)
	s.Put(2)
	if s.Resident(9) {
		t.Fatal("Resident found an absent row")
	}
	if !s.Resident(1) {
		t.Fatal("Resident(1) false")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Resident counted: %+v", st)
	}
	// Resident must not promote: 1 stays LRU despite the peek, so admitting
	// a third row evicts it, not 2.
	if victim, _ := s.Put(3); victim != 1 {
		t.Fatalf("Resident changed LRU order: evicted row %d, want 1", victim)
	}
}

// Regression: invalidations are evictions the agent did not choose and
// must be counted — otherwise cache stats undercount exactly the events
// the eviction counters exist for.
func TestInvalidateDiscards(t *testing.T) {
	s := New(50, 2)
	s.Put(1)
	s.Update(1)
	s.Invalidate(1)
	if s.Get(1) {
		t.Fatal("invalidated row still resident")
	}
	if len(dirtyRows(s)) != 0 {
		t.Fatal("invalidate kept dirty state")
	}
	if st := s.Stats(); st.Evictions != 1 || st.DirtyEvictions != 1 || st.Invalidations != 1 {
		t.Fatalf("invalidation not counted: %+v", st)
	}
	s.Put(2)
	s.Invalidate(2)
	if st := s.Stats(); st.Evictions != 2 || st.DirtyEvictions != 1 || st.Invalidations != 2 {
		t.Fatalf("clean invalidation miscounted: %+v", st)
	}
	s.Invalidate(42) // absent: no-op
	if st := s.Stats(); st.Evictions != 2 || st.Invalidations != 2 {
		t.Fatalf("absent invalidation counted: %+v", st)
	}
}

// A flush is every dirty row read out and marked clean.
func TestFlushDirty(t *testing.T) {
	s := New(4, 4)
	s.Put(2)
	s.Put(1)
	s.Update(2)
	s.Update(1)
	var flushed []int
	for row := range s.Dirty() {
		flushed = append(flushed, row)
		s.MarkClean(row)
	}
	if !slices.Equal(flushed, []int{1, 2}) {
		t.Fatalf("flushed %v, want [1 2]", flushed)
	}
	if len(dirtyRows(s)) != 0 {
		t.Fatal("flush left dirt")
	}
	if !s.Resident(1) || !s.Resident(2) {
		t.Fatal("flush dropped rows")
	}
}

// Clear lets go of every row without counting an eviction, and the store
// fills again from empty.
func TestClear(t *testing.T) {
	s := New(4, 2)
	s.Put(0)
	s.Put(1)
	s.Update(1)
	before := s.Stats()
	s.Clear()
	if residentRows(s) != 0 || len(dirtyRows(s)) != 0 {
		t.Fatal("Clear left rows behind")
	}
	if s.Stats() != before {
		t.Fatalf("Clear counted: %+v -> %+v", before, s.Stats())
	}
	s.Put(2)
	if victim, _ := s.Put(3); victim != -1 {
		t.Fatalf("second put after Clear evicted row %d", victim)
	}
	if victim, _ := s.Put(0); victim != 2 {
		t.Fatalf("third put after Clear evicted row %d, want 2", victim)
	}
}

func TestQueryQueue(t *testing.T) {
	q := NewQueryQueue()
	q.Push([]graph.VertexID{3, 2, 2, 1})
	q.Push([]graph.VertexID{7, 2})
	if q.Len() != 4 {
		t.Fatalf("len %d, want 4 distinct", q.Len())
	}
	for _, id := range []graph.VertexID{1, 2, 3, 7} {
		if !q.Has(id) {
			t.Fatalf("queued vertex %d not found", id)
		}
	}
	if q.Has(0) || q.Has(5) || q.Has(9) {
		t.Fatal("Has found a vertex nobody pushed")
	}
	q.Reset()
	if q.Len() != 0 || q.Has(2) {
		t.Fatal("Reset left vertices queued")
	}
}

// Property: the store never exceeds capacity, and a Get immediately after
// Put always hits — under arbitrary operation sequences.
func TestCacheInvariantsQuick(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw)%8 + 1
		s := New(20, capacity)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 200; op++ {
			row := rng.Intn(20)
			switch rng.Intn(4) {
			case 0:
				s.Put(row)
				if !s.Get(row) {
					return false
				}
			case 1:
				s.Get(row)
			case 2:
				s.Update(row)
			case 3:
				s.Invalidate(row)
			}
			if residentRows(s) > capacity {
				return false
			}
		}
		return true
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// Property: a row marked by Update is either still resident and dirty,
// or was reported out through a dirty eviction/flush, or explicitly
// superseded by authoritative data (Put refresh, Invalidate) — updates are
// never silently lost.
func TestNoLostUpdatesQuick(t *testing.T) {
	f := func(seed int64) bool {
		s := New(10, 3)
		rng := rand.New(rand.NewSource(seed))
		pending := map[int]bool{} // updated, not yet surfaced
		for op := 0; op < 300; op++ {
			row := rng.Intn(10)
			switch rng.Intn(3) {
			case 0:
				if victim, dirty := s.Put(row); dirty {
					delete(pending, victim) // surfaced via eviction
				}
				delete(pending, row) // an authoritative refresh supersedes it
			case 1:
				if s.Update(row) {
					pending[row] = true
				}
			case 2:
				s.Invalidate(row) // remote overwrite: local update superseded
				delete(pending, row)
			}
		}
		for row := range s.Dirty() {
			delete(pending, row)
		}
		return len(pending) == 0
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// storeModel drives a Store over a one-column table and the map + list
// cache it replaced through the same operations, the way an agent uses
// them: a put or an update first writes the table row, the old cache is
// handed a copy, the store nothing. They must agree at every step on
// hits and misses, on which row a put evicts and whether it has to be
// spilled (and with what value), on the dirty set, on a flush's batch,
// and on every counter; and whatever the old cache holds must be what
// the table holds — the property that made its copy redundant.
type storeModel struct {
	t     *testing.T
	table []float64
	store *Store
	old   *Cache
	next  float64 // the next value written, distinct every time
}

func newStoreModel(t *testing.T, rows, capacity int) *storeModel {
	oldCap := capacity
	if oldCap <= 0 {
		oldCap = rows // the agent's "0 sizes it to the vertex table"
	}
	return &storeModel{
		t: t, table: make([]float64, rows),
		store: New(rows, capacity), old: newOracle(oldCap, 1),
	}
}

func (m *storeModel) write(row int) []float64 {
	m.next++
	m.table[row] = m.next
	return m.table[row : row+1]
}

func (m *storeModel) step(op byte, row int) {
	t, id := m.t, graph.VertexID(row)
	switch op % 7 {
	case 0:
		cached, hit := m.old.Get(id)
		if got := m.store.Get(row); got != hit {
			t.Fatalf("get %d: store hit %v, old cache %v", row, got, hit)
		}
		if hit && cached[0] != m.table[row] {
			t.Fatalf("get %d: old cache holds %v, table %v", row, cached[0], m.table[row])
		}
	case 1:
		pr := m.old.Put(id, m.write(row))
		victim, dirty := m.store.Put(row)
		if (victim >= 0) != pr.DidEvict || dirty != (pr.DidEvict && pr.Evicted.Dirty) {
			t.Fatalf("put %d: store evicted %d (dirty %v), old cache %+v", row, victim, dirty, pr)
		}
		if pr.DidEvict && (int(pr.Evicted.ID) != victim || pr.Evicted.Row[0] != m.table[victim]) {
			t.Fatalf("put %d: store evicts row %d holding %v, old cache %+v", row, victim, m.table[victim], pr.Evicted)
		}
	case 2:
		// RequestApply's write-back: the table row moves whether or not the
		// row is resident (the agent re-admits an absent one by a put).
		val := m.write(row)
		if got, want := m.store.Update(row), m.old.Update(id, val); got != want {
			t.Fatalf("update %d: store %v, old cache %v", row, got, want)
		}
	case 3:
		m.old.Invalidate(id)
		m.store.Invalidate(row)
	case 4:
		m.old.MarkClean(id)
		m.store.MarkClean(row)
	case 5:
		var got []Evicted
		for r := range m.store.Dirty() {
			got = append(got, Evicted{ID: graph.VertexID(r), Row: m.table[r : r+1], Dirty: true})
			m.store.MarkClean(r)
		}
		want := m.old.FlushDirty()
		if len(got) != len(want) {
			t.Fatalf("flush: store %d rows, old cache %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Row[0] != want[i].Row[0] {
				t.Fatalf("flush row %d: store %+v, old cache %+v", i, got[i], want[i])
			}
		}
	case 6:
		_, peek := m.old.Peek(id)
		if got := m.store.Resident(row); got != peek {
			t.Fatalf("peek %d: store %v, old cache %v", row, got, peek)
		}
	}
	m.check()
}

func (m *storeModel) check() {
	t := m.t
	o, s := m.old.Stats(), m.store.Stats()
	if s != (Stats{Hits: o.Hits, Misses: o.Misses, Evictions: o.Evictions,
		Invalidations: o.Invalidations, DirtyEvictions: o.DirtyEvictions}) {
		t.Fatalf("counters: store %+v, old cache %+v", s, o)
	}
	if n := residentRows(m.store); n != m.old.Len() {
		t.Fatalf("store holds %d rows, old cache %d", n, m.old.Len())
	}
	var dirty []graph.VertexID
	for r := range m.store.Dirty() {
		dirty = append(dirty, graph.VertexID(r))
	}
	if want := m.old.Dirty(); !slices.Equal(dirty, want) {
		t.Fatalf("dirty: store %v, old cache %v", dirty, want)
	}
	for row := range m.table {
		if cached, ok := m.old.Peek(graph.VertexID(row)); ok && cached[0] != m.table[row] {
			t.Fatalf("old cache holds %v for row %d, table %v", cached[0], row, m.table[row])
		}
	}
}

func TestStoreMatchesOldCache(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(24)
		m := newStoreModel(t, rows, rng.Intn(rows+4)) // 0: whole table; some over it
		for op := 0; op < 400; op++ {
			m.step(byte(rng.Intn(7)), rng.Intn(rows))
		}
	}
}

// FuzzVertexStore is TestStoreMatchesOldCache with the table size, the
// capacity and the operation sequence taken from the fuzz input.
func FuzzVertexStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 0, 2, 0, 1, 1, 1, 2, 5, 0})
	f.Add([]byte("vertex-store"))
	f.Add([]byte{15, 200, 1, 0, 1, 1, 2, 1, 3, 1, 1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows := 1 + int(data[0])%32
		m := newStoreModel(t, rows, int(data[1])%40)
		for ops := data[2:]; len(ops) >= 2; ops = ops[2:] {
			m.step(ops[0], int(ops[1])%rows)
		}
	})
}
