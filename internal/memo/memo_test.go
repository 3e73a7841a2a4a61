package memo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// One build per key; repeats hit; Purge resets.
func TestTableMemoizes(t *testing.T) {
	tab := NewTable[int, string](0)
	var builds atomic.Int64
	get := func(k int) string {
		return tab.Get(k, func() string {
			builds.Add(1)
			return "v"
		})
	}
	if get(1) != "v" || get(1) != "v" || get(2) != "v" {
		t.Fatal("wrong values")
	}
	if builds.Load() != 2 {
		t.Fatalf("%d builds, want 2", builds.Load())
	}
	if st := tab.Stats(); st.Entries != 2 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
	tab.Purge()
	if st := tab.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("purge left %+v", st)
	}
	get(1)
	if builds.Load() != 3 {
		t.Fatal("purged entry not rebuilt")
	}
}

// Concurrent first requests for one key run the build exactly once and
// all receive the identical value.
func TestTableSingleFlight(t *testing.T) {
	tab := NewTable[string, *int](0)
	var builds atomic.Int64
	const callers = 16
	got := make([]*int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tab.Get("k", func() *int {
				builds.Add(1)
				v := 7
				return &v
			})
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds under contention", builds.Load())
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different instance", i)
		}
	}
	if st := tab.Stats(); st.Hits != callers-1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDropAllowsRebuild(t *testing.T) {
	tbl := NewTable[string, int](0)
	builds := 0
	build := func() int { builds++; return builds }
	if got := tbl.Get("k", build); got != 1 {
		t.Fatalf("first Get = %d, want 1", got)
	}
	if got := tbl.Get("k", build); got != 1 {
		t.Fatalf("memoized Get = %d, want 1 (no rebuild)", got)
	}
	tbl.Drop("k")
	if got := tbl.Get("k", build); got != 2 {
		t.Fatalf("Get after Drop = %d, want rebuild (2)", got)
	}
	tbl.Drop("absent") // no-op
	if st := tbl.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// A build that panics memoizes nothing: the builder and every caller
// blocked on it panic with its value — none receives a zero value — and
// the next Get builds again.
func TestTablePanickingBuildLeavesNoEntry(t *testing.T) {
	tab := NewTable[string, *int](0)
	const waiters = 4
	var builds atomic.Int64
	release := make(chan struct{})
	panics := make(chan any, waiters+1)
	get := func(build func() *int) {
		defer func() { panics <- recover() }()
		v := tab.Get("k", build)
		t.Errorf("Get returned %v instead of panicking", v)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(func() *int {
			builds.Add(1)
			<-release
			panic("synthetic build panic")
		})
	}()
	for builds.Load() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(func() *int { t.Error("a waiter built"); return nil })
		}()
	}
	for tab.Stats().Hits < waiters { // every waiter is blocked on the build
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(panics)
	for p := range panics {
		if p != "synthetic build panic" {
			t.Errorf("caller recovered %v", p)
		}
	}
	if st := tab.Stats(); st.Entries != 0 {
		t.Fatalf("panicked build left %d entries", st.Entries)
	}
	v := tab.Get("k", func() *int { builds.Add(1); x := 7; return &x })
	if v == nil || *v != 7 || builds.Load() != 2 {
		t.Fatalf("Get after the panic = %v after %d builds, want a rebuilt 7", v, builds.Load())
	}
}

// Capacity 1 holds only the last key: every distinct Put replaces the
// entry before it.
func TestTableCapacityOneReplaces(t *testing.T) {
	tab := NewTable[string, int](1)
	for i, k := range []string{"a", "b", "a", "c"} {
		tab.Put(k, i)
		if v, ok := tab.Lookup(k); !ok || v != i {
			t.Fatalf("Lookup(%q) = %d, %v right after Put(%d)", k, v, ok, i)
		}
		if st := tab.Stats(); st.Entries != 1 {
			t.Fatalf("%d entries at capacity 1", st.Entries)
		}
	}
	if _, ok := tab.Lookup("b"); ok {
		t.Fatal("replaced key still held")
	}
	if st := tab.Stats(); st.Evictions != 3 || st.Hits != 4 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 3 evictions, 4 hits, 1 miss", st)
	}
}

// Lookup, a Get hit and a re-Put each make their key the most recently
// used; eviction takes the least recently used and counts it.
func TestTableLRURecency(t *testing.T) {
	tab := NewTable[string, int](3)
	value := func(v int) func() int { return func() int { return v } }
	tab.Put("a", 1)
	tab.Put("b", 2)
	tab.Get("c", value(3)) // c b a
	tab.Lookup("a")        // a c b
	tab.Put("d", 4)        // evicts b: d a c
	if v := tab.Get("c", value(30)); v != 3 {
		t.Fatalf("Get hit rebuilt c: %d", v) // c d a
	}
	tab.Put("a", 10) // a c d
	tab.Put("e", 5)  // evicts d: e a c
	tab.Put("f", 6)  // evicts c: f e a
	for k, want := range map[string]int{"a": 10, "e": 5, "f": 6} {
		if v, ok := tab.Lookup(k); !ok || v != want {
			t.Errorf("Lookup(%q) = %d, %v, want %d", k, v, ok, want)
		}
	}
	for _, k := range []string{"b", "c", "d"} {
		if _, ok := tab.Lookup(k); ok {
			t.Errorf("%q survived eviction", k)
		}
	}
	if st := tab.Stats(); st.Evictions != 3 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 3 evictions, 3 entries", st)
	}
}

// An unbounded table keeps no recency order: a Get hit is a locked map
// lookup and allocates nothing.
func TestTableUnboundedGetHitAllocatesNothing(t *testing.T) {
	tab := NewTable[int, int](0)
	build := func() int { return 1 }
	tab.Get(1, build)
	if n := testing.AllocsPerRun(100, func() { tab.Get(1, build) }); n != 0 {
		t.Fatalf("Get hit allocates %v times", n)
	}
}
