package gx

import (
	"runtime"
	"sort"
	"time"

	"gxplug/internal/engine"
	"gxplug/internal/memo"
)

// Plan selects the order a suite's entries are dispatched onto the
// executor pool. Dispatch order changes wall-clock time only: entry-done
// emission, per-entry results, and virtual times are bit-identical under
// every plan at every pool size (the executor emits in suite order
// regardless of completion order).
type Plan string

const (
	// FileOrder dispatches entries in suite order — the default, and
	// what an empty Plan means.
	FileOrder Plan = "file"
	// LPT dispatches entries longest-predicted-first (Longest Processing
	// Time): the [Planner]'s cost estimates order the queue so big
	// entries start early and small ones pack the tail, the classic
	// 4/3-approximation to minimum makespan.
	LPT Plan = "lpt"
)

// valid reports whether p names a known plan ("" counts as FileOrder).
func (p Plan) valid() bool { return p == "" || p == FileOrder || p == LPT }

// CostEstimate is the planner's prediction for one scenario: a cheap dry
// pass over the calibrated cost model — graph stats, partitioning
// fractions, device and network parameters — with no superstep executed.
type CostEstimate struct {
	// Supersteps is the predicted iteration count.
	Supersteps int `json:"supersteps"`
	// Entities is the predicted work volume in entity-iterations.
	Entities float64 `json:"entities"`
	// Makespan is the predicted virtual makespan.
	Makespan time.Duration `json:"makespan"`
}

// plannerMemoCap bounds the per-Planner estimate memo; past it the
// least recently used estimate goes, which is cheap to recompute.
const plannerMemoCap = 4096

// Planner prices scenarios without running them. It shares a
// [DatasetCache] with the executor — the dry pass loads graphs and
// partitionings through the same single-flight memoization the run will
// hit again. It prices from the cost model alone: an estimate is a pure
// function of the scenario and the content of the files it names, never
// of what ran before.
//
// A Planner is safe for concurrent use.
type Planner struct {
	cache     *DatasetCache
	estimates *memo.Table[string, loaded[CostEstimate]] // model estimates by scenario key
}

// NewPlanner returns a planner estimating through cache (nil: a fresh
// private cache).
func NewPlanner(cache *DatasetCache) *Planner {
	if cache == nil {
		cache = NewDatasetCache()
	}
	return &Planner{cache: cache,
		estimates: memo.NewTable[string, loaded[CostEstimate]](plannerMemoCap)}
}

// Estimate predicts the scenario's cost. The model pass is memoized per
// canonical scenario digest (with `file:` content digests folded in, so
// a rewritten file re-prices). A failed pass is shared with concurrent
// callers of the same attempt but not memoized beyond it.
func (p *Planner) Estimate(s Scenario) (CostEstimate, error) {
	s = s.WithDefaults()
	key, keyed := scenarioKey(p.cache, s)
	if !keyed {
		return p.model(s)
	}
	r := p.estimates.Get(key, func() loaded[CostEstimate] {
		v, err := p.model(s)
		return loaded[CostEstimate]{v: v, err: err}
	})
	if r.err != nil {
		p.estimates.Drop(key)
	}
	return r.v, r.err
}

// model runs the dry pass: load graph and partitioning through the
// shared cache, build the engine configuration exactly as Run would
// (batch stream included), and price it with engine.EstimateCost.
func (p *Planner) model(s Scenario) (CostEstimate, error) {
	g, err := p.cache.Graph(s.Dataset, s.Scale, s.Seed)
	if err != nil {
		return CostEstimate{}, err
	}
	part, err := p.cache.Partitioning(g, s.Engine, s.Nodes)
	if err != nil {
		return CostEstimate{}, err
	}
	cfg, err := prepare(s, p.cache, []Option{WithGraph(g), WithPartitioning(part)})
	if err != nil {
		return CostEstimate{}, err
	}
	ce, err := engine.EstimateCost(cfg)
	if err != nil {
		return CostEstimate{}, err
	}
	return CostEstimate{
		Supersteps: ce.Supersteps,
		Entities:   ce.Entities,
		Makespan:   ce.Makespan,
	}, nil
}

// EntryEstimate is one suite entry's prediction inside a [SuitePlan].
type EntryEstimate struct {
	// Name is the entry's (defaulted) name.
	Name string `json:"name"`
	// CostEstimate is the planner's prediction; zero-valued when Err is
	// set (an unestimable entry sorts last and simply runs).
	CostEstimate
	// Err records a failed estimate (the entry itself may still run and
	// surface the same failure with full context).
	Err string `json:"error,omitempty"`
}

// SuitePlan is the planner's schedule for one suite.
type SuitePlan struct {
	// Entries holds one estimate per suite entry, in suite order.
	Entries []EntryEstimate `json:"entries"`
	// Order is the LPT dispatch order: indexes into Entries, descending
	// by predicted makespan, ties broken by suite order.
	Order []int `json:"order"`
	// Pool is the worker count the makespan prediction assumed.
	Pool int `json:"pool"`
	// PredictedSerial is the summed predicted makespan of all entries —
	// the total predicted virtual cost, what admission budgets compare
	// against.
	PredictedSerial time.Duration `json:"predicted_serial"`
	// PredictedMakespan simulates greedy LPT dispatch onto Pool workers:
	// the predicted completion time of the slowest worker, in the same
	// virtual unit as the per-entry makespans.
	PredictedMakespan time.Duration `json:"predicted_makespan"`
}

// PlanSuite estimates every entry and builds the LPT schedule. pool <= 0
// defaults to GOMAXPROCS, mirroring RunSuite. Entries whose estimate
// fails are recorded with Err set and dispatch last.
func (p *Planner) PlanSuite(suite Suite, pool int) (*SuitePlan, error) {
	suite = suite.WithDefaults()
	if err := suite.Validate(); err != nil {
		return nil, err
	}
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	n := len(suite.Entries)
	if pool > n {
		pool = n
	}
	plan := &SuitePlan{Entries: make([]EntryEstimate, n), Pool: pool}
	costs := make([]time.Duration, n)
	for i, e := range suite.Entries {
		ee := EntryEstimate{Name: e.Name}
		if est, err := p.Estimate(e.Scenario); err != nil {
			ee.Err = err.Error()
		} else {
			ee.CostEstimate = est
			costs[i] = est.Makespan
		}
		plan.Entries[i] = ee
		plan.PredictedSerial += costs[i]
	}
	plan.Order = lptOrder(costs)
	plan.PredictedMakespan = packMakespan(costs, plan.Order, pool)
	return plan, nil
}

// packMakespan list-schedules entries onto a pool of workers in the
// given dispatch order: each lands on the least-loaded worker, which is
// exactly how workers pulling from the ordered queue behave when entries
// take the given times. It returns the most-loaded worker's total.
func packMakespan(costs []time.Duration, order []int, pool int) time.Duration {
	load := make([]time.Duration, pool)
	for _, idx := range order {
		min := 0
		for w := 1; w < pool; w++ {
			if load[w] < load[min] {
				min = w
			}
		}
		load[min] += costs[idx]
	}
	var makespan time.Duration
	for _, l := range load {
		makespan = max(makespan, l)
	}
	return makespan
}

// lptOrder returns entry indexes sorted descending by cost, ties broken
// by index (stable), so the dispatch order is a deterministic function
// of the estimates.
func lptOrder(costs []time.Duration) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	return order
}

// scenarioKey is the identity estimates and results are keyed by: the
// canonical [Scenario.Digest], with `file:` datasets folding in the
// file's current content digest — the same key the result cache uses,
// for the same reason (a rewritten file must never hit stale state).
func scenarioKey(cache *DatasetCache, s Scenario) (key string, ok bool) {
	d, err := s.Digest()
	if err != nil {
		return "", false
	}
	sha, isFile, err := cache.contentSHA(s.Dataset)
	if err != nil {
		return "", false
	}
	if isFile {
		d += "+sha256:" + sha
	}
	// Batch-stream files fold in the same way: resubmitting a scenario
	// over a rewritten stream must be a distinct key (inline batches are
	// already covered by the scenario digest).
	if s.Batches != nil && s.Batches.Stream != "" {
		sha, isFile, err := cache.contentSHA(s.Batches.Stream)
		if err != nil || !isFile {
			return "", false
		}
		d += "+batches-sha256:" + sha
	}
	return d, true
}
