// Package serve is the gxd serving layer: an HTTP/JSON front end over
// the gx execution core. The wire format is the one the repository
// already had — scenarios and suites round-trip through JSON — plus
// small envelope types defined here, shared by the server, the thin
// client (gxrun -remote), and the tests.
//
// Endpoints (all under /v1):
//
//	POST /v1/submit   scenario or suite JSON body → SubmitReply (202);
//	                  429 when the admission queue is full, 503 when
//	                  draining, 400/422 on malformed or invalid input,
//	                  and 422 with a CostReject body when a configured
//	                  admission budget prices the submission out.
//	GET  /v1/status   ?id=JOB → Status.
//	GET  /v1/result   ?id=JOB[&wait=1] → JobResult; without wait, 409
//	                  until the job is done.
//	GET  /v1/stream   ?id=JOB → NDJSON Event stream: the job's full
//	                  event history from the beginning, then live
//	                  events until the terminal "done" event.
//	GET  /v1/healthz  → Health.
//
// Determinism note: everything in this package that feeds results is
// wall-clock-free — job outcomes come from the gx executor, whose
// times are virtual. The package is inside the gxlint determinism
// analyzer's scope (internal/lint's TestLint, part of `go test ./...`)
// to keep it that way.
package serve

import (
	"time"

	"gxplug/gx"
)

// SubmitReply acknowledges an admitted submission.
type SubmitReply struct {
	// ID names the job in every other endpoint.
	ID string `json:"id"`
	// State is the job's admission state, always "queued" on submit.
	State string `json:"state"`
}

// Job states reported by Status.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
)

// Status is one job's progress snapshot.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Supersteps counts engine supersteps executed for this job so far
	// — zero for a job served entirely from the result cache.
	Supersteps int64 `json:"supersteps"`
	// Entries and EntriesDone size the job and its progress.
	Entries     int `json:"entries"`
	EntriesDone int `json:"entries_done"`
}

// EntryReport is the wire form of one finished suite entry: the
// defaults-applied scenario plus the result summary (attrs digest,
// totals, virtual makespan). It is everything a client needs to render
// gxrun's per-entry report byte-identically, and it is what a
// result-cache hit serves without recomputation.
type EntryReport struct {
	Name     string           `json:"name"`
	Scenario gx.Scenario      `json:"scenario"`
	Summary  gx.ResultSummary `json:"summary"`
	// CacheHit marks an entry served from the daemon's result cache
	// with zero engine supersteps.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Err and Class report a failed entry (empty on success).
	Err   string `json:"error,omitempty"`
	Class string `json:"class,omitempty"`
}

// ReportOf converts an executor entry result to its wire form.
func ReportOf(er gx.EntryResult) EntryReport {
	rep := EntryReport{
		Name:     er.Name,
		Scenario: er.Scenario,
		Summary:  er.Summary,
		CacheHit: er.CacheHit,
		Class:    er.Class,
	}
	if er.Err != nil {
		rep.Err = er.Err.Error()
	}
	return rep
}

// JobResult is a finished job's full outcome.
type JobResult struct {
	ID string `json:"id"`
	// Suite is the submitted suite's name ("" when unnamed).
	Suite string `json:"suite,omitempty"`
	// Entries holds one report per entry, in suite order.
	Entries []EntryReport `json:"entries"`
	// Failed counts entries that ended in error.
	Failed int `json:"failed"`
	// Supersteps counts engine supersteps this job executed (zero when
	// every entry hit the result cache).
	Supersteps int64 `json:"supersteps"`
	// Cache snapshots the process-wide dataset/partition cache, and
	// Results the process-wide result cache, as of job completion.
	Cache   gx.CacheStats       `json:"cache"`
	Results gx.ResultCacheStats `json:"results"`
}

// Event is one NDJSON stream record. Type selects which payload field
// is set: "superstep" (Entry + Superstep), "entry" (Report), "done"
// (Result, always the final event).
type Event struct {
	Type      string        `json:"type"`
	Entry     string        `json:"entry,omitempty"`
	Superstep *gx.Superstep `json:"superstep,omitempty"`
	Report    *EntryReport  `json:"report,omitempty"`
	Result    *JobResult    `json:"result,omitempty"`
}

// Health is the healthz payload: liveness plus the process-wide cache
// counters a load balancer or test wants to see.
type Health struct {
	OK   bool `json:"ok"`
	Jobs int  `json:"jobs"`
	// Evicted counts finished jobs released by the retention bound over
	// the server's lifetime; Jobs counts the resident remainder.
	Evicted int                 `json:"evicted"`
	Cache   gx.CacheStats       `json:"cache"`
	Results gx.ResultCacheStats `json:"results"`
}

// CostReject is the 422 body of a submission priced out by the admission
// budget: the planner's per-entry estimates and the predicted serial
// virtual cost that exceeded the configured ceiling. The client can
// split the suite, shrink the scenarios, or resubmit elsewhere.
type CostReject struct {
	Error string `json:"error"`
	// Predicted is the summed predicted virtual makespan of all entries.
	Predicted time.Duration `json:"predicted"`
	// Budget is the server's configured admission ceiling.
	Budget time.Duration `json:"budget"`
	// Entries holds the planner's per-entry estimates, in suite order.
	Entries []gx.EntryEstimate `json:"entries"`
}
