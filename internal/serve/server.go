package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gxplug/gx"
)

// Options configure a Server.
type Options struct {
	// Pool bounds suite-entry concurrency per job (0 = GOMAXPROCS).
	Pool int
	// ResultCapacity bounds the process-wide result cache in entries
	// (0 = 1024).
	ResultCapacity int
	// QueueDepth bounds the admission queue — jobs accepted but not yet
	// running (0 = 64). A full queue rejects submissions with 429.
	QueueDepth int
	// Retention bounds how many finished jobs stay resident (0 = 256).
	// Past the bound the oldest finished job is evicted — its id 404s and
	// its event history is released; running and queued jobs never
	// evict. Event histories are kept until eviction, so streams of any
	// resident job replay in full.
	Retention int
	// Budget, when positive, is the admission cost ceiling: a submission
	// whose planner-predicted serial virtual cost exceeds it is rejected
	// with 422 and a [CostReject] body carrying the estimate, before the
	// job consumes a queue slot. Zero admits everything unpriced.
	Budget time.Duration
	// Plan selects the dispatch order jobs run under ("" = file order,
	// gx.LPT = longest-predicted-first). Results are bit-identical either
	// way; LPT packs the entry pool tighter on mixed suites.
	Plan gx.Plan
	// Manifest, when non-empty, resolves logical dataset names in every
	// submission before validation.
	Manifest gx.Manifest
}

// maxSubmitBytes bounds a submission body; suites are small JSON.
const maxSubmitBytes = 8 << 20

// Server is the gxd daemon core: one process-wide [gx.DatasetCache] and
// one digest-keyed [gx.ResultCache] shared across every submission, a
// bounded admission queue feeding a single executor worker (entries
// within a job still fan out on the gx pool), per-job NDJSON event
// streams, and a drain path that finishes every admitted job before
// shutdown. It implements http.Handler; cmd/gxd puts it behind a
// listener and signal handling.
type Server struct {
	pool    int
	cache   *gx.DatasetCache
	results *gx.ResultCache
	mf      gx.Manifest
	mux     *http.ServeMux

	// planner prices submissions for cost-aware admission and orders
	// LPT dispatch; nil unless Options enabled either (so a default
	// server's cache accounting is byte-identical to the pre-planner
	// daemon). It prices from the cost model alone, so admission is a
	// pure function of the submission and the budget.
	planner *gx.Planner
	plan    gx.Plan
	budget  time.Duration

	mu        sync.Mutex
	jobs      map[string]*job
	seq       int
	draining  bool
	retention int
	// doneOrder tracks finished jobs FIFO for retention eviction;
	// evicted counts jobs released over the server's lifetime.
	doneOrder []string
	evicted   int

	queue   chan *job
	workers sync.WaitGroup
}

// job tracks one admitted submission through its lifetime.
type job struct {
	id    string
	suite gx.Suite

	mu   sync.Mutex
	cond *sync.Cond
	// state transitions queued → running → done under mu.
	state string
	// events is the append-only history every /v1/stream reader replays
	// then follows; cond broadcasts on every append.
	events []Event
	// supersteps counts engine supersteps executed (not served).
	supersteps int64
	entriesIn  int
	result     *JobResult
}

// New returns a Server and starts its executor worker. Call
// [Server.Drain] before discarding it.
func New(opts Options) (*Server, error) {
	pool := opts.Pool
	if pool == 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if pool < 1 {
		return nil, fmt.Errorf("serve: pool %d (want ≥ 1)", pool)
	}
	capacity := opts.ResultCapacity
	if capacity == 0 {
		capacity = 1024
	}
	results, err := gx.NewResultCache(capacity)
	if err != nil {
		return nil, err
	}
	depth := opts.QueueDepth
	if depth == 0 {
		depth = 64
	}
	if depth < 1 {
		return nil, fmt.Errorf("serve: queue depth %d (want ≥ 1)", depth)
	}
	retention := opts.Retention
	if retention == 0 {
		retention = 256
	}
	if retention < 1 {
		return nil, fmt.Errorf("serve: retention %d (want ≥ 1)", retention)
	}
	if opts.Budget < 0 {
		return nil, fmt.Errorf("serve: budget %v (want ≥ 0)", opts.Budget)
	}
	if p := opts.Plan; p != "" && p != gx.FileOrder && p != gx.LPT {
		return nil, fmt.Errorf("serve: unknown plan %q (want %q or %q)", p, gx.FileOrder, gx.LPT)
	}
	s := &Server{
		pool:      pool,
		cache:     gx.NewDatasetCache(),
		results:   results,
		mf:        opts.Manifest,
		plan:      opts.Plan,
		budget:    opts.Budget,
		retention: retention,
		jobs:      make(map[string]*job),
		queue:     make(chan *job, depth),
	}
	if s.plan == gx.LPT || s.budget > 0 {
		s.planner = gx.NewPlanner(s.cache)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/submit", s.handleSubmit)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	s.mux.HandleFunc("/v1/result", s.handleResult)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.workers.Add(1)
	go s.worker()
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admission — further submissions get 503 — and blocks
// until every already-admitted job has run to completion. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.workers.Wait()
}

// worker executes admitted jobs one at a time, in admission order, so
// the daemon's throughput knob is the gx entry pool, not inter-job
// interleaving. It exits when Drain closes the queue and the backlog
// is finished.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one suite through the gx execution core, mirroring its
// serialized callbacks into the job's event stream.
func (s *Server) runJob(j *job) {
	j.setState(StateRunning)
	opts := []gx.SuiteOption{
		gx.WithPool(s.pool),
		gx.WithCache(s.cache),
		gx.WithResultCache(s.results),
		gx.WithSuiteObserver(func(entry string, st gx.Superstep) {
			j.mu.Lock()
			j.supersteps++
			j.mu.Unlock()
			j.append(Event{Type: "superstep", Entry: entry, Superstep: &st})
		}),
		gx.WithEntryDone(func(er gx.EntryResult) {
			rep := ReportOf(er)
			j.mu.Lock()
			j.entriesIn++
			j.mu.Unlock()
			j.append(Event{Type: "entry", Report: &rep})
		}),
	}
	if s.planner != nil {
		// The process-wide planner dispatches the job (LPT when
		// configured), reusing the estimates admission memoized.
		opts = append(opts, gx.WithPlanner(s.planner), gx.WithPlan(s.plan))
	}
	res, err := gx.RunSuite(j.suite, opts...)

	jr := &JobResult{ID: j.id, Suite: j.suite.Name}
	if err != nil {
		// Submissions are validated before admission, so this is a
		// panic in the entry-done callback above; report it as one
		// failed pseudo-entry rather than dropping the job on the floor.
		jr.Entries = []EntryReport{{Name: "suite", Err: err.Error(), Class: gx.FailureClass(err)}}
		jr.Failed = 1
	} else {
		jr.Entries = make([]EntryReport, len(res.Entries))
		for i, er := range res.Entries {
			jr.Entries[i] = ReportOf(er)
			if er.Err != nil {
				jr.Failed++
			}
		}
		jr.Cache = res.Cache
	}
	jr.Results = s.results.Stats()

	// Retention is applied before the job is seen to finish, so a caller
	// woken by its done event never finds an older job that should have
	// been evicted still resident. The finishing job is the newest, so it
	// is never the one evicted.
	s.finishJob(j.id)

	// Completion is one critical section: the done state, the result, and
	// the terminal "done" event become visible atomically. Splitting them
	// (state first, event in a second lock hold) opens a race where a
	// stream reader observes state == done with the history drained and
	// finishes without ever seeing the done event.
	j.mu.Lock()
	jr.Supersteps = j.supersteps
	j.result = jr
	j.state = StateDone
	j.events = append(j.events, Event{Type: "done", Result: jr})
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finishJob records a completed job for FIFO retention and evicts the
// oldest finished jobs past the bound. Evicted ids 404; their event
// histories are released with them.
func (s *Server) finishJob(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneOrder = append(s.doneOrder, id)
	for len(s.doneOrder) > s.retention {
		oldest := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.jobs, oldest)
		s.evicted++
	}
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// append adds one event to the history and wakes every stream reader.
func (j *job) append(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// handleSubmit parses a scenario or suite body, resolves it through the
// manifest, validates it, and admits it to the bounded queue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "serve: submit is POST")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubmitBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "serve: read body: %v", err)
		return
	}
	if len(body) > maxSubmitBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "serve: submission exceeds %d bytes", maxSubmitBytes)
		return
	}
	suite, err := parseSubmission(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	suite = s.mf.ResolveSuite(suite).WithDefaults()
	if err := suite.Validate(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if rejected := s.admitCost(w, suite); rejected {
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "serve: draining, not accepting submissions")
		return
	}
	s.seq++
	j := &job{id: fmt.Sprintf("job-%d", s.seq), suite: suite, state: StateQueued}
	j.cond = sync.NewCond(&j.mu)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
	default:
		s.seq--
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "serve: admission queue full, retry later")
		return
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, SubmitReply{ID: j.id, State: StateQueued})
}

// admitCost enforces the configured admission budget: the planner prices
// the validated suite (a dry pass over graph stats — no supersteps), and
// a predicted serial virtual cost above the budget is rejected with 422
// and the full estimate, before the job takes a queue slot. A failed
// estimate admits — the budget is a guard against knowably huge jobs,
// not a second validator — as does an unconfigured budget.
func (s *Server) admitCost(w http.ResponseWriter, suite gx.Suite) (rejected bool) {
	if s.budget <= 0 || s.planner == nil {
		return false
	}
	plan, err := s.planner.PlanSuite(suite, s.pool)
	if err != nil || plan.PredictedSerial <= s.budget {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusUnprocessableEntity)
	writeJSON(w, CostReject{
		Error:     fmt.Sprintf("serve: predicted cost %v exceeds budget %v", plan.PredictedSerial, s.budget),
		Predicted: plan.PredictedSerial,
		Budget:    s.budget,
		Entries:   plan.Entries,
	})
	return true
}

// parseSubmission accepts either a suite (preferred) or a bare scenario,
// which is wrapped as a one-entry suite named "scenario".
func parseSubmission(body []byte) (gx.Suite, error) {
	suite, suiteErr := gx.ParseSuite(body)
	if suiteErr == nil && len(suite.Entries) > 0 {
		return suite, nil
	}
	sc, scErr := gx.ParseScenario(body)
	if scErr == nil {
		return gx.Suite{Entries: []gx.SuiteEntry{{Name: "scenario", Scenario: sc}}}, nil
	}
	if suiteErr == nil {
		return gx.Suite{}, fmt.Errorf("serve: submission has no entries")
	}
	return gx.Suite{}, fmt.Errorf("serve: body is neither a suite (%v) nor a scenario (%v)", suiteErr, scErr)
}

// lookup resolves the id query parameter to a job.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.URL.Query().Get("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "serve: unknown job %q", id)
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	st := Status{
		ID:          j.id,
		State:       j.state,
		Supersteps:  j.supersteps,
		Entries:     len(j.suite.Entries),
		EntriesDone: j.entriesIn,
	}
	if j.state == StateDone {
		st.EntriesDone = len(j.suite.Entries)
	}
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	wait := r.URL.Query().Get("wait") != ""
	ctx := r.Context()
	if wait {
		defer watchDisconnect(ctx, j)()
	}
	j.mu.Lock()
	for wait && j.state != StateDone && ctx.Err() == nil {
		j.cond.Wait()
	}
	res := j.result
	j.mu.Unlock()
	if ctx.Err() != nil {
		return // client went away while waiting
	}
	if res == nil {
		httpError(w, http.StatusConflict, "serve: job %s not done (pass wait=1 to block)", j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, res)
}

// handleStream replays the job's event history as NDJSON and follows it
// live until the terminal "done" event. A client connecting after
// completion gets the full history — streams are replayable, so a
// result-cache-served job streams the same shape as a computed one
// (entry events straight to done, no supersteps).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	defer watchDisconnect(ctx, j)()
	i := 0
	for {
		j.mu.Lock()
		for i >= len(j.events) && j.state != StateDone && ctx.Err() == nil {
			j.cond.Wait()
		}
		batch := j.events[i:len(j.events):len(j.events)]
		i = len(j.events)
		// The "done" event is the last ever appended, so the stream is
		// complete once the job is done and the history is drained.
		finished := j.state == StateDone && i >= len(j.events)
		j.mu.Unlock()
		if ctx.Err() != nil {
			return // client went away; stop following and free the goroutine
		}
		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if finished {
			return
		}
	}
}

// watchDisconnect wakes the job's cond waiters when ctx is canceled —
// an abandoned stream or result?wait=1 request would otherwise park its
// handler goroutine on the cond until the job finishes (forever, for a
// long job). The broadcast holds j.mu so a waiter between its condition
// check and Wait cannot miss it. The returned stop func releases the
// watcher; call it when the handler returns.
func watchDisconnect(ctx context.Context, j *job) (stop func()) {
	cancel := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	return func() { cancel() }
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n, evicted := len(s.jobs), s.evicted
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, Health{OK: true, Jobs: n, Evicted: evicted, Cache: s.cache.Stats(),
		Results: s.results.Stats()})
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // best effort: the client may have disconnected
}
