package gx

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
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
	// Source reports how the prediction was produced: "model" for the
	// pure dry pass, "history" when a recorded actual makespan for the
	// same scenario digest replaced the model value, "scaled" when the
	// history-wide actual/predicted ratio refined it.
	Source string `json:"source,omitempty"`
}

// plannerMemoCap bounds the per-Planner raw-estimate memo; past it the
// least recently used estimate goes, which is cheap to recompute.
const plannerMemoCap = 4096

// Planner prices scenarios without running them. It shares a
// [DatasetCache] with the executor — the dry pass loads graphs and
// partitionings through the same single-flight memoization the run will
// hit again — and optionally refines its model predictions through a
// [PlannerStats] history of predicted-vs-actual makespans.
//
// A Planner is safe for concurrent use.
type Planner struct {
	cache     *DatasetCache
	stats     *PlannerStats
	estimates *memo.Table[string, loaded[CostEstimate]] // raw model estimates by scenario key
}

// NewPlanner returns a planner estimating through cache (nil: a fresh
// private cache) and refining through stats (nil: pure model estimates).
func NewPlanner(cache *DatasetCache, stats *PlannerStats) *Planner {
	if cache == nil {
		cache = NewDatasetCache()
	}
	return &Planner{cache: cache, stats: stats,
		estimates: memo.NewTable[string, loaded[CostEstimate]](plannerMemoCap)}
}

// Stats returns the planner's history, nil when it has none.
func (p *Planner) Stats() *PlannerStats { return p.stats }

// Estimate predicts the scenario's cost. The model pass is memoized per
// canonical scenario digest (with `file:` content digests folded in, so
// a rewritten file re-prices); history refinement is applied on top of
// the memo, never into it. A failed pass is shared with concurrent
// callers of the same attempt but not memoized beyond it.
func (p *Planner) Estimate(s Scenario) (CostEstimate, error) {
	s = s.WithDefaults()
	key, keyed := scenarioKey(p.cache, s)

	var r loaded[CostEstimate]
	if keyed {
		r = p.estimates.Get(key, func() loaded[CostEstimate] {
			raw, err := p.model(s)
			return loaded[CostEstimate]{v: raw, err: err}
		})
		if r.err != nil {
			p.estimates.Drop(key)
		}
	} else {
		r.v, r.err = p.model(s)
	}
	if r.err != nil {
		return CostEstimate{}, r.err
	}
	raw := r.v
	if p.stats == nil {
		return raw, nil
	}
	if keyed {
		if actual, ok := p.stats.Lookup(key); ok {
			raw.Makespan = actual
			raw.Source = "history"
			return raw, nil
		}
	}
	if ratio := p.stats.Ratio(); ratio > 0 && ratio != 1 {
		raw.Makespan = time.Duration(float64(raw.Makespan) * ratio)
		raw.Source = "scaled"
	}
	return raw, nil
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
		Source:     "model",
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

// scenarioKey is the identity estimates and history are keyed by: the
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

// PlannerStats is the observer-history feedback loop behind a [Planner]:
// it records predicted-vs-actual virtual makespans per scenario key, so
// repeat shapes are re-priced from their recorded actuals and novel
// shapes are scaled by the history-wide actual/predicted ratio.
//
// Recording is order-independent — per-key actuals are idempotent
// (deterministic runs always record the same actual) and the ratio sums
// are exact integer nanosecond additions — so concurrent executors
// feeding one PlannerStats leave it in the same state regardless of
// completion order.
type PlannerStats struct {
	mu      sync.Mutex
	actual  map[string]time.Duration
	order   []string // insertion order, for bounded eviction
	cap     int
	predSum int64 // nanoseconds; exact integer sums keep Ratio deterministic
	actSum  int64
}

// DefaultPlannerHistory is the per-key history bound NewPlannerStats
// applies when capacity is 0.
const DefaultPlannerHistory = 4096

// NewPlannerStats returns an empty history bounded to capacity recorded
// scenario keys (0 = DefaultPlannerHistory); the oldest key is evicted
// past the bound.
func NewPlannerStats(capacity int) (*PlannerStats, error) {
	if capacity == 0 {
		capacity = DefaultPlannerHistory
	}
	if capacity < 1 {
		return nil, fmt.Errorf("gx: planner history capacity %d (want ≥ 1)", capacity)
	}
	return &PlannerStats{actual: make(map[string]time.Duration), cap: capacity}, nil
}

// Observe records one finished run: the makespan the planner predicted
// and the makespan the run actually took (both virtual).
func (ps *PlannerStats) Observe(key string, predicted, actual time.Duration) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, seen := ps.actual[key]; !seen {
		if len(ps.order) >= ps.cap {
			delete(ps.actual, ps.order[0])
			ps.order = ps.order[1:]
		}
		ps.order = append(ps.order, key)
		// Only first observations feed the ratio: repeat runs of one
		// scenario are deterministic and would just re-weight it.
		ps.predSum += int64(predicted)
		ps.actSum += int64(actual)
	}
	ps.actual[key] = actual
}

// Lookup returns the recorded actual makespan for a scenario key.
func (ps *PlannerStats) Lookup(key string) (time.Duration, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	d, ok := ps.actual[key]
	return d, ok
}

// Ratio is the history-wide actual/predicted makespan ratio — the
// planner's calibration drift, multiplied into model estimates for
// scenarios with no recorded history. 1 with no (or degenerate) history.
func (ps *PlannerStats) Ratio() float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.predSum <= 0 || ps.actSum <= 0 {
		return 1
	}
	return float64(ps.actSum) / float64(ps.predSum)
}

// Len reports how many scenario keys have recorded actuals.
func (ps *PlannerStats) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.actual)
}

// plannerStatsJSON is the serialized form of a history — what
// `gxd -stats FILE` persists across restarts. Durations are integer
// nanoseconds so the round-trip is exact.
type plannerStatsJSON struct {
	Capacity int              `json:"capacity"`
	Order    []string         `json:"order,omitempty"`
	Actual   map[string]int64 `json:"actual,omitempty"`
	PredSum  int64            `json:"pred_sum"`
	ActSum   int64            `json:"act_sum"`
}

// MarshalJSON implements json.Marshaler.
func (ps *PlannerStats) MarshalJSON() ([]byte, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := plannerStatsJSON{
		Capacity: ps.cap,
		Order:    append([]string(nil), ps.order...),
		PredSum:  ps.predSum,
		ActSum:   ps.actSum,
	}
	if len(ps.actual) > 0 {
		out.Actual = make(map[string]int64, len(ps.actual))
		for k, v := range ps.actual {
			out.Actual[k] = int64(v)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, replacing the receiver's
// state with the serialized history. Malformed histories (keys in one
// structure but not the other) are rejected whole rather than loaded
// partially; histories over capacity evict oldest-first, exactly as live
// observation would have.
func (ps *PlannerStats) UnmarshalJSON(data []byte) error {
	var in plannerStatsJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("gx: planner stats: %w", err)
	}
	if in.Capacity == 0 {
		in.Capacity = DefaultPlannerHistory
	}
	if in.Capacity < 1 {
		return fmt.Errorf("gx: planner stats: capacity %d (want ≥ 1)", in.Capacity)
	}
	if len(in.Order) != len(in.Actual) {
		return fmt.Errorf("gx: planner stats: %d ordered keys for %d recorded actuals", len(in.Order), len(in.Actual))
	}
	actual := make(map[string]time.Duration, len(in.Actual))
	for _, k := range in.Order {
		v, ok := in.Actual[k]
		if !ok {
			return fmt.Errorf("gx: planner stats: ordered key %q has no recorded actual", k)
		}
		if _, dup := actual[k]; dup {
			return fmt.Errorf("gx: planner stats: duplicate key %q", k)
		}
		actual[k] = time.Duration(v)
	}
	for len(in.Order) > in.Capacity {
		delete(actual, in.Order[0])
		in.Order = in.Order[1:]
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.cap = in.Capacity
	ps.actual = actual
	ps.order = in.Order
	ps.predSum, ps.actSum = in.PredSum, in.ActSum
	return nil
}
