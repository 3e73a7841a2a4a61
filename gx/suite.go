package gx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// SuiteEntry is one named run of a suite: a [Scenario] plus the name its
// results are reported under. The scenario fields inline into the
// entry's JSON object, so an entry file reads exactly like a scenario
// file with a "name" key.
type SuiteEntry struct {
	// Name identifies the entry in results, observer callbacks and CLI
	// output. Empty names default to "entry-NN" (the entry's index).
	Name string `json:"name,omitempty"`
	Scenario
}

// Suite is an ordered set of named scenarios executed as one batch by
// [RunSuite]. Like [Scenario], a suite round-trips through JSON — `gxrun
// -suite file.json` and programmatic callers describe identical batches.
type Suite struct {
	// Name labels the suite in reports; optional.
	Name string `json:"name,omitempty"`
	// Entries run concurrently on a bounded pool, with results reported
	// in this order regardless of completion order.
	Entries []SuiteEntry `json:"entries"`
}

// WithDefaults returns the suite with every entry's scenario defaults
// applied and empty entry names replaced by "entry-NN". RunSuite and
// Validate apply it internally.
func (s Suite) WithDefaults() Suite {
	entries := make([]SuiteEntry, len(s.Entries))
	copy(entries, s.Entries)
	for i := range entries {
		entries[i].Scenario = entries[i].Scenario.WithDefaults()
		if entries[i].Name == "" {
			entries[i].Name = fmt.Sprintf("entry-%02d", i)
		}
	}
	s.Entries = entries
	return s
}

// Validate checks the suite: at least one entry, unique entry names, and
// every scenario valid. Like Scenario.Validate it reports every problem
// found, each prefixed with the entry name it belongs to.
func (s Suite) Validate() error {
	s = s.WithDefaults()
	var errs []error
	if len(s.Entries) == 0 {
		errs = append(errs, errors.New("suite: no entries"))
	}
	seen := make(map[string]bool, len(s.Entries))
	for _, e := range s.Entries {
		if seen[e.Name] {
			errs = append(errs, fmt.Errorf("suite: duplicate entry name %q", e.Name))
		}
		seen[e.Name] = true
		if err := e.Scenario.validate(provided{}); err != nil {
			errs = append(errs, fmt.Errorf("suite entry %q: %w", e.Name, err))
		}
	}
	return errors.Join(errs...)
}

// ParseSuite decodes a suite from JSON. Unknown fields are errors, so
// typos in suite files fail loudly instead of silently defaulting.
func ParseSuite(data []byte) (Suite, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return Suite{}, fmt.Errorf("gx: parse suite: %w", err)
	}
	return s, nil
}

// LoadSuite reads and decodes a suite file.
func LoadSuite(path string) (Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Suite{}, fmt.Errorf("gx: load suite: %w", err)
	}
	s, err := ParseSuite(data)
	if err != nil {
		return Suite{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// JSON encodes the suite as indented JSON. ParseSuite(s.JSON())
// reproduces s exactly.
func (s Suite) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// EntryTotals aggregates an entry's per-superstep observer reports into
// per-entry totals — the roll-up counterpart of [Superstep].
// The JSON form is part of the gxd wire format (inside [ResultSummary]).
type EntryTotals struct {
	// Supersteps counts observer reports (== Result.Iterations).
	Supersteps int `json:"supersteps"`
	// Messages and MessageBytes sum the cross-node traffic.
	Messages     int64 `json:"messages"`
	MessageBytes int64 `json:"message_bytes"`
	// MirrorUpdates sums master→mirror broadcasts.
	MirrorUpdates int `json:"mirror_updates"`
	// SkippedSyncs counts supersteps whose synchronization was skipped.
	SkippedSyncs int `json:"skipped_syncs"`
	// Cache* sum the synchronization-cache activity over all supersteps.
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	CacheEvictions   int64 `json:"cache_evictions"`
	CacheDirtySpills int64 `json:"cache_dirty_spills"`
	// FaultsInjected counts faults armed by the entry's fault plan.
	FaultsInjected int `json:"faults_injected"`
	// FaultRetries sums the stall retries the middleware absorbed.
	FaultRetries int64 `json:"fault_retries"`
	// CheckpointTime sums the virtual time charged to checkpoint cuts.
	CheckpointTime time.Duration `json:"checkpoint_time"`
}

// Add folds one superstep's observer report into the totals. A suite
// entry's totals and a single gxrun run's report both count through it.
func (t *EntryTotals) Add(st Superstep) {
	t.Supersteps++
	t.Messages += st.Messages
	t.MessageBytes += st.MessageBytes
	t.MirrorUpdates += st.MirrorUpdates
	if st.SkippedSync {
		t.SkippedSyncs++
	}
	t.CacheHits += st.CacheHits
	t.CacheMisses += st.CacheMisses
	t.CacheEvictions += st.CacheEvictions
	t.CacheDirtySpills += st.CacheDirtySpills
	t.FaultsInjected += st.FaultsInjected
	t.FaultRetries += st.FaultRetries
	t.CheckpointTime += st.CheckpointTime
}

// EntryResult is the outcome of one suite entry.
type EntryResult struct {
	// Name is the entry's (defaulted) name.
	Name string
	// Scenario is the defaults-applied scenario that ran.
	Scenario Scenario
	// Result is the run outcome; nil when Err is set, and nil for an
	// entry served from a result cache (see CacheHit).
	Result *Result
	// Totals aggregates the entry's per-superstep observer reports.
	// Zero for a cache hit: a served entry executes no supersteps.
	Totals EntryTotals
	// Summary condenses the outcome — attrs digest, totals, makespan.
	// Set on every successful entry, whether run or served; it is the
	// part of the outcome that survives the result cache.
	Summary ResultSummary
	// CacheHit marks an entry answered from a [ResultCache]: Summary
	// carries the (bit-identical, by determinism) outcome and Result is
	// nil because no engine superstep ran.
	CacheHit bool
	// Err records a failed entry. One failed entry does not abort the
	// suite; the others still run.
	Err error
	// Class is [FailureClass] of Err: "fault", "validation", "io" or
	// "run"; empty for a successful entry.
	Class string
}

// SuiteResult is the outcome of RunSuite: per-entry results in suite
// order plus the cache activity that backed the batch.
type SuiteResult struct {
	// Name is the suite's name.
	Name string
	// Entries holds one result per suite entry, in suite order.
	Entries []EntryResult
	// Cache snapshots the dataset/partition cache at suite completion.
	// With the default per-call cache, GraphLoads is exactly the number
	// of distinct (dataset, scale, seed) triples the suite names.
	Cache CacheStats
}

// Failed counts entries that ended in error.
func (r *SuiteResult) Failed() int {
	n := 0
	for _, e := range r.Entries {
		if e.Err != nil {
			n++
		}
	}
	return n
}

// Err joins the entry errors (nil when every entry succeeded), each
// prefixed with its entry name.
func (r *SuiteResult) Err() error {
	var errs []error
	for _, e := range r.Entries {
		if e.Err != nil {
			errs = append(errs, fmt.Errorf("entry %q: %w", e.Name, e.Err))
		}
	}
	return errors.Join(errs...)
}

// SuiteOption configures RunSuite.
type SuiteOption func(*executor)

// WithPool bounds the number of entries executing concurrently. The
// default is GOMAXPROCS. Pool size changes wall-clock time only: results,
// virtual times and reporting order are identical at every size.
func WithPool(n int) SuiteOption { return func(x *executor) { x.pool = n } }

// WithCache runs the suite over an existing [DatasetCache] instead of a
// fresh one, extending graph/partitioning reuse across RunSuite calls.
func WithCache(cache *DatasetCache) SuiteOption {
	return func(x *executor) { x.cache = cache }
}

// WithResultCache serves entries whose canonical scenario digest (plus
// `file:` content digest) already has a cached outcome from rc instead
// of re-running them: a hit executes zero engine supersteps and comes
// back as an [EntryResult] with CacheHit set, the cached Summary, and a
// nil Result. Sound because runs are bit-deterministic — the served
// summary is exactly what the run would recompute. Fresh successful
// entries are stored on completion. Without this option RunSuite never
// consults a result cache, so existing callers are byte-for-byte
// unchanged; the gxd serving layer passes one process-wide cache here.
func WithResultCache(rc *ResultCache) SuiteOption {
	return func(x *executor) { x.results = rc }
}

// WithSuiteObserver attaches a per-superstep observer to every entry,
// called with the entry's name. Suite callbacks (this one and the
// WithEntryDone callback) are serialized against each other — they
// never run concurrently — so both may share unsynchronized state such
// as an output stream. Reports for one entry arrive in superstep order;
// with a pool larger than one, reports of different entries interleave
// in completion order.
func WithSuiteObserver(fn func(entry string, st Superstep)) SuiteOption {
	return func(x *executor) { x.obs = fn }
}

// WithPlan selects the dispatch order ([FileOrder] or [LPT]). LPT prices
// every entry with a [Planner] before the pool starts and dispatches
// longest-predicted-first, which packs the pool tighter on mixed suites.
// The plan changes wall-clock time only: entry-done emission, per-entry
// results and virtual times stay bit-identical to file order at every
// pool size.
func WithPlan(p Plan) SuiteOption { return func(x *executor) { x.plan = p } }

// WithPlanner runs the suite against an existing [Planner] instead of a
// private one, so LPT dispatch reuses the estimates it has memoized (a
// server prices a submission for admission, then dispatches it). The
// planner prices from the cost model alone; running a suite never
// changes what it predicts. Without [WithPlan] ([LPT]) it is not
// consulted.
func WithPlanner(p *Planner) SuiteOption { return func(x *executor) { x.planner = p } }

// WithEntryDone streams per-entry results as they are finalized. The
// callback is serialized against itself and the WithSuiteObserver
// callback, and always invoked in suite order — entry i is reported
// only after entries 0..i-1 — so streaming consumers see one
// deterministic sequence no matter the pool size, at the cost of
// buffering results that finish out of order. A panic in fn stops the
// stream — fn is not called again — while the remaining entries still
// run; RunSuite then returns the panic as its error, naming the entry.
func WithEntryDone(fn func(EntryResult)) SuiteOption {
	return func(x *executor) { x.done = fn }
}

// RunSuite validates the suite and executes its entries concurrently on
// a bounded pool, loading each distinct (dataset, scale, seed) exactly
// once and partitioning each loaded graph once per (engine, nodes)
// through a [DatasetCache]. Each entry otherwise runs exactly as
// [Run] would run it: per-run virtual clocks, agents and algorithm
// instances are private, and graphs/partitionings are immutable, so a
// concurrent suite is bit-identical — results and per-entry virtual
// times — to running the same entries serially.
//
// A failed entry records its error in the corresponding [EntryResult]
// and does not stop the rest of the suite; RunSuite itself errors only
// on invalid input or a panicking [WithEntryDone] callback.
func RunSuite(suite Suite, opts ...SuiteOption) (*SuiteResult, error) {
	x := &executor{pool: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		if opt != nil {
			opt(x)
		}
	}
	if x.pool < 1 {
		return nil, fmt.Errorf("gx: suite pool %d (want ≥ 1)", x.pool)
	}
	if !x.plan.Known() {
		return nil, fmt.Errorf("gx: unknown plan %q (want %q or %q)", x.plan, FileOrder, LPT)
	}
	suite = suite.WithDefaults()
	if err := suite.Validate(); err != nil {
		return nil, err
	}
	if x.cache == nil {
		x.cache = NewDatasetCache()
	}
	if x.planner == nil && x.plan == LPT {
		x.planner = NewPlanner(x.cache)
	}
	entries, err := x.execute(suite.Entries)
	if err != nil {
		return nil, err
	}
	return &SuiteResult{Name: suite.Name, Entries: entries, Cache: x.cache.Stats()}, nil
}
