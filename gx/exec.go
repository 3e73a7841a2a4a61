package gx

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gxplug/internal/par"
)

// executor is the shared execution core every consumer funnels suite
// entries through: [RunSuite] for library callers and the CLIs, and the
// gxd serving layer (internal/serve) for remote submissions. It owns
// the mechanics that used to live inline in RunSuite — the bounded
// worker pool, the single-flight [DatasetCache] wiring, per-entry
// failure classification, serialized observer fan-out, and in-order
// result streaming — plus the digest-keyed [ResultCache] consult, so a
// change to any of them is a local change in one layer.
//
// Entries are declarative by construction (a [SuiteEntry] is a JSON
// scenario), which is what makes result caching sound here: runs that
// need functional options go through [Run] directly and never reach
// the cache.
type executor struct {
	// pool bounds the number of entries executing concurrently (≥ 1).
	pool int
	// cache is the dataset/partition cache entries load through.
	cache *DatasetCache
	// results, when non-nil, serves repeat scenarios from their cached
	// summaries instead of re-running them.
	results *ResultCache
	// obs and done are the caller's streaming hooks; both serialized.
	obs  func(entry string, st Superstep)
	done func(EntryResult)
	// plan selects dispatch order; planner prices entries for LPT.
	plan    Plan
	planner *Planner
}

// execute runs the defaults-applied entries on the bounded pool and
// returns one result per entry, in entry order. The done callback is
// invoked in entry order as prefixes complete; obs fans out
// per-superstep reports. Both callbacks are serialized against each
// other, so they may share unsynchronized state such as one stdout.
//
// The done callback runs on a pool worker outside any entry, under
// par.Do's recover: a panic in it makes execute return the
// *par.PanicError wrapped with the entry's name, and no later done call
// is made. The remaining entries still run to completion.
func (x *executor) execute(entries []SuiteEntry) ([]EntryResult, error) {
	n := len(entries)
	results := make([]EntryResult, n)

	// Dispatch order. File order is the identity; LPT dispatches by
	// descending predicted makespan. Only the order workers *pick up*
	// entries changes — results land by entry index and the done stream
	// below emits in entry order either way.
	order := x.schedule(entries)

	// cbMu serializes every user callback — the per-superstep observer
	// and the entry-done stream — across concurrently running entries.
	var cbMu sync.Mutex
	finished := make([]bool, n)
	emitted := 0
	var doneErr error

	workers := x.pool
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				slot := int(next.Add(1))
				if slot >= n {
					return
				}
				i := slot
				if order != nil {
					i = order[slot]
				}
				results[i] = x.runEntry(entries[i], &cbMu)
				if x.done == nil {
					continue
				}
				cbMu.Lock()
				finished[i] = true
				for ; doneErr == nil && emitted < n && finished[emitted]; emitted++ {
					er := &results[emitted]
					if err := par.Do(1, func(int) error { x.done(*er); return nil }); err != nil {
						doneErr = fmt.Errorf("gx: entry %q: done callback: %w", er.Name, err)
					}
				}
				cbMu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, doneErr
}

// schedule returns the dispatch order: nil (file order) unless the plan
// is LPT, which prices every entry first. Estimation runs serially
// before the pool starts — it is a dry pass over graph stats, orders of
// magnitude cheaper than any entry — and an entry whose estimate fails
// costs zero, sorting last deterministically (the run itself will
// surface the error with full context).
func (x *executor) schedule(entries []SuiteEntry) []int {
	if x.plan != LPT {
		return nil
	}
	costs := make([]time.Duration, len(entries))
	for i, e := range entries {
		if est, err := x.planner.Estimate(e.Scenario); err == nil {
			costs[i] = est.Makespan
		}
	}
	return lptOrder(costs)
}

// runEntry executes one defaults-applied entry against the shared
// caches, aggregating its superstep reports into totals. A result-cache
// hit short-circuits before any graph load or engine superstep: the
// entry comes back with its cached summary, a nil Result, and CacheHit
// set. cbMu is the executor-wide callback lock shared with entry-done
// emission.
//
// An entry runs user code — registered algorithms, dataset loaders, the
// suite observer — on this pool worker's goroutine. A panic there fails
// the entry (class run, the value and stack in the error) and leaves the
// worker, the other entries and the process alive.
func (x *executor) runEntry(e SuiteEntry, cbMu *sync.Mutex) (er EntryResult) {
	defer func() { er.Class = FailureClass(er.Err) }()
	defer func() {
		if v := recover(); v != nil {
			er.Result, er.Summary = nil, ResultSummary{}
			er.Err = fmt.Errorf("gx: entry %q panicked: %v\n%s", e.Name, v, debug.Stack())
		}
	}()
	er = EntryResult{Name: e.Name, Scenario: e.Scenario}
	key, cacheable := x.resultKey(e.Scenario)
	if cacheable {
		if sum, ok := x.results.Get(key); ok {
			er.Summary, er.CacheHit = sum, true
			return er
		}
	}
	g, err := x.cache.Graph(e.Dataset, e.Scale, e.Seed)
	if err != nil {
		er.Err = err
		return er
	}
	part, err := x.cache.Partitioning(g, e.Engine, e.Nodes)
	if err != nil {
		er.Err = err
		return er
	}
	er.Result, er.Err = run(e.Scenario, x.cache, []Option{
		WithGraph(g),
		WithPartitioning(part),
		WithObserver(func(st Superstep) {
			er.Totals.Add(st)
			if x.obs != nil {
				// Unlocked by defer: a panicking observer fails its own
				// entry and must not leave the others waiting on the lock.
				cbMu.Lock()
				defer cbMu.Unlock()
				x.obs(e.Name, st)
			}
		}),
	})
	if er.Err != nil {
		return er
	}
	er.Summary = Summarize(er.Result, er.Totals)
	if cacheable {
		x.results.Put(key, er.Summary)
	}
	return er
}

// resultKey derives the result-cache key of a declarative scenario —
// [scenarioKey], the same identity the planner memoizes estimates
// under. cacheable is false when no result cache is attached or the key
// cannot be computed (an unreadable `file:` dataset, say); the entry
// then just runs and surfaces any failure with full context.
func (x *executor) resultKey(s Scenario) (key string, cacheable bool) {
	if x.results == nil {
		return "", false
	}
	return scenarioKey(x.cache, s)
}
