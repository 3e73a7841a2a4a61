package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gxplug/gx"
)

// suiteBody is a small two-entry suite used across the tests.
const suiteBody = `{
  "name": "serve-test",
  "entries": [
    {"name": "pr", "engine": "powergraph", "algorithm": "pagerank",
     "dataset": "orkut", "scale": 20000, "seed": 42, "nodes": 2,
     "accel": "gpu", "maxiter": 5},
    {"name": "cc", "engine": "graphx", "algorithm": "cc",
     "dataset": "orkut", "scale": 20000, "seed": 42, "nodes": 2}
  ]
}`

func startServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	client := NewClient(hs.URL)
	t.Cleanup(func() { client.Close(); srv.Drain(); hs.Close() })
	return srv, client
}

// TestServeEndToEnd drives the whole protocol over loopback HTTP:
// submit, stream, result, status, healthz — then resubmits the same
// suite and proves the second job runs zero engine supersteps and
// returns summaries identical to the first.
func TestServeEndToEnd(t *testing.T) {
	_, client := startServer(t, Options{Pool: 2})

	reply, err := client.Submit([]byte(suiteBody))
	if err != nil {
		t.Fatal(err)
	}
	if reply.ID == "" || reply.State != StateQueued {
		t.Fatalf("reply %+v", reply)
	}

	var supersteps, entries int
	var done *JobResult
	if err := client.Stream(reply.ID, func(ev Event) error {
		switch ev.Type {
		case "superstep":
			supersteps++
		case "entry":
			entries++
		case "done":
			done = ev.Result
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if supersteps == 0 || entries != 2 || done == nil {
		t.Fatalf("stream: %d supersteps, %d entries, done=%v", supersteps, entries, done != nil)
	}
	if done.Failed != 0 || done.Supersteps != int64(supersteps) || len(done.Entries) != 2 {
		t.Fatalf("done: %+v", done)
	}
	if done.Suite != "serve-test" {
		t.Fatalf("suite name %q", done.Suite)
	}

	res, err := client.Result(reply.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Status(reply.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.EntriesDone != 2 {
		t.Fatalf("status %+v", st)
	}

	// Resubmit: every entry must come from the result cache — zero
	// engine supersteps for the whole job — with identical summaries.
	reply2, err := client.Submit([]byte(suiteBody))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := client.Result(reply2.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Supersteps != 0 {
		t.Fatalf("resubmission executed %d supersteps, want 0", res2.Supersteps)
	}
	for i, rep := range res2.Entries {
		if !rep.CacheHit {
			t.Fatalf("%s: not served from result cache", rep.Name)
		}
		if !reflect.DeepEqual(rep.Summary, res.Entries[i].Summary) {
			t.Fatalf("%s: served summary differs:\n%+v\n%+v", rep.Name, rep.Summary, res.Entries[i].Summary)
		}
	}
	if res2.Results.Hits < 2 {
		t.Fatalf("result cache stats %+v", res2.Results)
	}

	// A replayed stream of the cached job has entry events but no
	// superstep events.
	replayed := 0
	if err := client.Stream(reply2.ID, func(ev Event) error {
		if ev.Type == "superstep" {
			replayed++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("cached job streamed %d superstep events", replayed)
	}

	// Field-order and default respelling still hits: the key is the
	// canonical digest, not the submitted bytes.
	respelled := `{"entries": [
	  {"maxiter": 5, "accel": "gpu", "nodes": 2, "seed": 42, "scale": 20000,
	   "dataset": "orkut", "algorithm": "pagerank", "engine": "powergraph",
	   "name": "pr", "network": "datacenter", "gpus": 1}]}`
	reply3, err := client.Submit([]byte(respelled))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := client.Result(reply3.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Supersteps != 0 || !res3.Entries[0].CacheHit {
		t.Fatalf("respelled submission missed: %+v", res3)
	}
	if res3.Entries[0].Summary.AttrsDigest != res.Entries[0].Summary.AttrsDigest {
		t.Fatal("respelled submission served a different result")
	}
}

// TestServeScenarioSubmission wraps a bare scenario as a one-entry suite.
func TestServeScenarioSubmission(t *testing.T) {
	_, client := startServer(t, Options{})
	body := `{"engine": "graphx", "algorithm": "cc", "dataset": "orkut", "scale": 20000, "nodes": 1}`
	reply, err := client.Submit([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Result(reply.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].Name != "scenario" || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
}

// absurdNodesBody sized a 12.8 GB exchange-volume matrix — a fatal
// out-of-memory, not a panic, so it took the daemon down — before nodes
// was bounded.
const absurdNodesBody = `{"engine": "graphx", "algorithm": "pagerank", "dataset": "orkut", "scale": 4000, "nodes": 40000}`

// hostileGrowthBody passes Validate (ids are only bounded by uint32) and
// used to size a 32 GB offset array in ApplyBatch: a fatal out-of-memory
// that took the daemon and every queued job with it.
const hostileGrowthBody = `{"engine":"graphx","algorithm":"pagerank","dataset":"orkut","scale":16000,"nodes":2,"maxiter":2,"batches":{"inline":[{"time":1,"adds":[{"src":0,"dst":4000000000}]}]}}`

// TestServeHostileBatchFailsTheJob: a batch that names a vertex id far
// beyond the graph is one failed entry — rejected before any boundary
// runs, so class validation — and the daemon keeps serving.
func TestServeHostileBatchFailsTheJob(t *testing.T) {
	_, client := startServer(t, Options{})
	reply, err := client.Submit([]byte(hostileGrowthBody))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Result(reply.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Supersteps != 0 || res.Entries[0].Class != gx.ClassValidation ||
		!strings.Contains(res.Entries[0].Err, "batch add 0 (0->4000000000) beyond vertex growth bound") {
		t.Fatalf("hostile batch: %d failed, %d supersteps, entry %+v", res.Failed, res.Supersteps, res.Entries[0])
	}
	reply, err = client.Submit([]byte(suiteBody))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = client.Result(reply.ID, true); err != nil || res.Failed != 0 {
		t.Fatalf("job after the hostile one: %v, %+v", err, res)
	}
}

// TestServeRejections pins the HTTP error contract: malformed bodies,
// invalid scenarios, unknown jobs, wrong methods, not-done results.
func TestServeRejections(t *testing.T) {
	_, client := startServer(t, Options{})

	for name, tc := range map[string]struct {
		body string
		code string
	}{
		"not json":        {"{", "400"},
		"empty suite":     {`{"entries": []}`, "400"},
		"unknown engine":  {`{"engine": "giraph", "algorithm": "pagerank", "dataset": "orkut", "nodes": 1}`, "422"},
		"unknown dataset": {`{"engine": "graphx", "algorithm": "pagerank", "dataset": "nope", "nodes": 1}`, "422"},
		"absurd nodes":    {absurdNodesBody, `422 Unprocessable Entity: suite entry "scenario": scenario: nodes 40000 (want 1..1024)`},
	} {
		_, err := client.Submit([]byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.code) {
			t.Errorf("%s: err %v, want HTTP %s", name, err, tc.code)
		}
	}

	if _, err := client.Status("job-999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job status: %v", err)
	}
	if _, err := client.Result("job-999", false); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job result: %v", err)
	}

	resp, err := http.Get(client.base + "/v1/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET submit: %d", resp.StatusCode)
	}
}

// TestServeQueueBound fills the admission queue behind a busy worker and
// expects 429, not unbounded buffering. The worker is held deterministically
// — it blocks on a gate job's mutex inside runJob until the test releases
// it — so the test never races real submissions against job runtime.
func TestServeQueueBound(t *testing.T) {
	srv, client := startServer(t, Options{Pool: 1, QueueDepth: 1})

	// The worker's first action on a job is setState, which takes j.mu;
	// holding it pins the worker inside runJob for as long as we like.
	gate := &job{id: "gate", state: StateQueued}
	gate.cond = sync.NewCond(&gate.mu)
	gate.mu.Lock()
	srv.queue <- gate
	defer gate.mu.Unlock() // release before Drain in cleanup

	// Depth 1 and a pinned worker: at most one submission is buffered
	// (fewer if the worker has not yet pulled the gate), so the second
	// must see 429.
	saw429 := false
	for i := 0; i < 2 && !saw429; i++ {
		body := fmt.Sprintf(`{"engine": "graphx", "algorithm": "cc", "dataset": "orkut", "scale": 20000, "seed": %d, "nodes": 1}`, i)
		if _, err := client.Submit([]byte(body)); err != nil {
			if !strings.Contains(err.Error(), "429") {
				t.Fatalf("unexpected rejection: %v", err)
			}
			saw429 = true
		}
	}
	if !saw429 {
		t.Fatal("queue never filled; no 429 observed")
	}
}

// TestServeDrain: draining rejects new submissions with 503 but finishes
// admitted jobs, whose results stay fetchable.
func TestServeDrain(t *testing.T) {
	srv, client := startServer(t, Options{})
	reply, err := client.Submit([]byte(suiteBody))
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	if _, err := client.Submit([]byte(suiteBody)); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit while draining: %v", err)
	}
	res, err := client.Result(reply.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Entries) != 2 {
		t.Fatalf("drained job result %+v", res)
	}
	srv.Drain() // idempotent
}

// TestServeManifest runs a daemon with a manifest: submissions name
// datasets logically and the daemon resolves them before validation.
func TestServeManifest(t *testing.T) {
	dir := t.TempDir()
	content := "0 1\n1 2\n2 0\n"
	path := dir + "/toy.el"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(content))
	ref := "file+edgelist:" + path + "#sha256=" + hex.EncodeToString(sum[:])
	m, err := gx.ParseManifest([]byte(fmt.Sprintf(`{"datasets": {"toy": %q}}`, ref)))
	if err != nil {
		t.Fatal(err)
	}
	_, client := startServer(t, Options{Manifest: m})

	body := `{"engine": "graphx", "algorithm": "cc", "dataset": "toy", "nodes": 1}`
	reply, err := client.Submit([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Result(reply.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("manifest-resolved run failed: %+v", res.Entries)
	}
	if got := res.Entries[0].Scenario.Dataset; got != ref {
		t.Fatalf("served scenario dataset %q, want resolved %q", got, ref)
	}
}

// TestServeHealthz checks the liveness payload decodes and carries the
// cache counters.
func TestServeHealthz(t *testing.T) {
	_, client := startServer(t, Options{ResultCapacity: 7})
	resp, err := http.Get(client.base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Results.Capacity != 7 {
		t.Fatalf("health %+v", h)
	}
}

// TestRenderMatchesLocal renders a computed entry report and checks the
// load-bearing lines; byte-identity against the gxrun golden is covered
// by the cmd/gxd end-to-end test.
func TestRenderMatchesLocal(t *testing.T) {
	_, client := startServer(t, Options{})
	reply, err := client.Submit([]byte(suiteBody))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Result(reply.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, rep := range res.Entries {
		RenderEntry(&buf, i+1, len(res.Entries), rep)
	}
	RenderSuiteSummary(&buf, res.Entries, res.Cache)
	out := buf.String()
	for _, want := range []string{
		"[1/2] pr: pagerank on orkut/powergraph over 2 nodes, accel=gpu",
		"supersteps  : 5 ",
		"result      : ",
		"dataset cache: 1 graphs loaded (1 hits), 2 partitionings built (0 hits)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}
