package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gxplug/gx"
)

// TestStreamDoneRace is the regression test for the done-event race:
// completion used to set state = done and append the terminal "done"
// event in two separate critical sections, so a stream follower waking
// between them saw a done job with a drained history and returned
// without the done event — Client.Stream then failed with "stream ended
// without a done event". Completion is now atomic; this hammers
// stream-at-completion to keep it that way. The pre-fix split reproduces
// under GOMAXPROCS > 1 with the race detector's instrumentation widening
// the window — the Makefile's race-serve target runs exactly that
// configuration.
func TestStreamDoneRace(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Drain)

	// The hammer drives handleStream and runJob in-process — no HTTP in
	// between. Each job gets stream followers (the end-to-end surface the
	// bug broke) plus a spinning observer that re-acquires j.mu in a
	// tight loop: the observer's acquisitions land inside the ~100ns
	// window between a split "state = done" section and the done-event
	// append, which is exactly what a stream connecting at completion
	// does — a cond-parked follower is immune, since only the event
	// append broadcasts. The observed invariant is the one handleStream
	// relies on: any lock hold that sees state done must also see the
	// done event. The suite is empty, so RunSuite fails instantly and
	// completion dominates each job's lifetime; 2000 jobs give the
	// observer thousands of in-window acquisition chances per run.
	const jobs, followers = 2000, 2
	for i := 0; i < jobs; i++ {
		j := &job{id: fmt.Sprintf("race-%d", i), state: StateQueued}
		j.cond = sync.NewCond(&j.mu)
		srv.mu.Lock()
		srv.jobs[j.id] = j
		srv.mu.Unlock()

		var wg sync.WaitGroup
		bodies := make([]string, followers)
		for f := 0; f < followers; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, "/v1/stream?id="+j.id, nil)
				srv.ServeHTTP(rec, req)
				bodies[f] = rec.Body.String()
			}(f)
		}
		torn := make(chan bool, 1)
		go func() {
			for {
				j.mu.Lock()
				if j.state == StateDone {
					ok := len(j.events) > 0 && j.events[len(j.events)-1].Type == "done"
					j.mu.Unlock()
					torn <- !ok
					return
				}
				j.mu.Unlock()
			}
		}()
		srv.runJob(j)
		if <-torn {
			t.Fatalf("job %d: state done observed without the done event in the history", i)
		}
		wg.Wait()
		for f, body := range bodies {
			if !strings.Contains(body, `"type":"done"`) {
				t.Fatalf("job %d follower %d: stream ended without a done event:\n%q", i, f, body)
			}
		}
	}
}

// TestStreamClientDisconnect: a follower abandoning the stream of a job
// that never finishes must release its handler goroutine instead of
// parking on the job's cond forever.
func TestStreamClientDisconnect(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Drain)

	// A job pinned in running state: no events will ever arrive and no
	// done transition will ever wake the stream.
	stuck := &job{id: "job-stuck", state: StateRunning}
	stuck.cond = sync.NewCond(&stuck.mu)
	srv.mu.Lock()
	srv.jobs[stuck.id] = stuck
	srv.mu.Unlock()

	for _, target := range []string{"/v1/stream?id=job-stuck", "/v1/result?id=job-stuck&wait=1"} {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
		done := make(chan struct{})
		go func() {
			srv.ServeHTTP(httptest.NewRecorder(), req)
			close(done)
		}()
		// Let the handler reach its wait, then hang up.
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: handler still parked after client disconnect", target)
		}
	}
}

// TestServeRetention: finished jobs past the retention bound are evicted
// oldest-first — their ids 404 — while healthz reports resident vs
// evicted counts. Histories of resident jobs still replay in full.
func TestServeRetention(t *testing.T) {
	_, client := startServer(t, Options{Retention: 2})

	var ids []string
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"engine": "graphx", "algorithm": "cc", "dataset": "orkut", "scale": 2000, "seed": %d, "nodes": 1}`, i+1)
		reply, err := client.Submit([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Result(reply.ID, true); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, reply.ID)
	}

	for _, id := range ids[:2] {
		if _, err := client.Status(id); err == nil || !strings.Contains(err.Error(), "404") {
			t.Errorf("evicted job %s still resident: %v", id, err)
		}
	}
	for _, id := range ids[2:] {
		sawDone := false
		if err := client.Stream(id, func(ev Event) error {
			if ev.Type == "done" {
				sawDone = true
			}
			return nil
		}); err != nil || !sawDone {
			t.Errorf("resident job %s replay: done=%v err=%v", id, sawDone, err)
		}
	}

	resp, err := http.Get(client.base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Jobs != 2 || h.Evicted != 2 {
		t.Fatalf("health %+v, want 2 resident / 2 evicted", h)
	}
}

// TestClientBoundedCalls: submit/status against a daemon that accepts
// connections but never answers fail within the short client's timeout
// instead of hanging gxrun -remote forever.
func TestClientBoundedCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never respond
		}
	}()

	c := NewClient(ln.Addr().String())
	defer c.Close()
	c.short.Timeout = 100 * time.Millisecond

	start := time.Now()
	if _, err := c.Submit([]byte(`{}`)); err == nil {
		t.Fatal("submit against a wedged daemon succeeded")
	}
	if _, err := c.Status("job-1"); err == nil {
		t.Fatal("status against a wedged daemon succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded calls took %v", elapsed)
	}
}

// TestClientCloseReleasesConnections is the regression test for the
// client-per-job descriptor leak: a Client owns two transports with
// keep-alive pools, so a lifetime that ends without Close strands its
// sockets until "too many open files". N sequential lifetimes — each
// exercising both the bounded and the open-ended transport — must leave
// the server with no connection open once every client is closed.
func TestClientCloseReleasesConnections(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	open := make(map[net.Conn]bool)
	changed := make(chan struct{}, 1)
	hs := httptest.NewUnstartedServer(srv)
	hs.Config.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		switch st {
		case http.StateNew:
			open[c] = true
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
		mu.Unlock()
		select {
		case changed <- struct{}{}:
		default:
		}
	}
	hs.Start()
	defer func() { srv.Drain(); hs.Close() }()

	const lifetimes = 8
	opened := 0
	for i := 0; i < lifetimes; i++ {
		c := NewClient(hs.URL)
		reply, err := c.Submit([]byte(suiteBody)) // bounded transport
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Result(reply.ID, true); err != nil { // open-ended transport
			t.Fatal(err)
		}
		mu.Lock()
		opened = max(opened, len(open))
		mu.Unlock()
		c.Close()
	}
	if opened < 2 {
		t.Fatalf("saw at most %d server connections; the test no longer exercises both transports", opened)
	}
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		n := len(open)
		mu.Unlock()
		if n == 0 {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("%d server connections still open after %d closed client lifetimes", n, lifetimes)
		}
	}
}

// TestServeCostAdmission: with an admission budget configured, a
// submission whose predicted serial cost exceeds it is rejected with 422
// and a CostReject body carrying the per-entry estimates; cheap
// submissions still admit, and a generous budget admits everything.
func TestServeCostAdmission(t *testing.T) {
	// Any real suite prices above one nanosecond.
	_, client := startServer(t, Options{Budget: 1})

	resp, err := http.Post(client.base+"/v1/submit", "application/json", strings.NewReader(suiteBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget submission: HTTP %d", resp.StatusCode)
	}
	var rej CostReject
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.Predicted <= rej.Budget || rej.Budget != 1 || len(rej.Entries) != 2 {
		t.Fatalf("reject body %+v", rej)
	}
	if !strings.Contains(rej.Error, "exceeds budget") {
		t.Fatalf("reject error %q", rej.Error)
	}
	for _, ee := range rej.Entries {
		if ee.Makespan <= 0 || ee.Err != "" {
			t.Fatalf("entry estimate %+v", ee)
		}
	}

	// The client surfaces the rejection as a 422 error too.
	if _, err := client.Submit([]byte(suiteBody)); err == nil || !strings.Contains(err.Error(), "422") {
		t.Fatalf("client submit over budget: %v", err)
	}

	// A generous budget admits and the job runs to completion.
	_, generous := startServer(t, Options{Budget: 24 * time.Hour})
	reply, err := generous.Submit([]byte(suiteBody))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := generous.Result(reply.ID, true); err != nil || res.Failed != 0 {
		t.Fatalf("admitted job: res=%+v err=%v", res, err)
	}
}

// TestServeLPTPlan: a daemon dispatching under LPT returns entry reports
// bit-identical to the default file-order daemon — the plan never leaks
// into results.
func TestServeLPTPlan(t *testing.T) {
	_, fileOrder := startServer(t, Options{Pool: 2})
	_, lpt := startServer(t, Options{Pool: 2, Plan: gx.LPT})

	run := func(c *Client) JobResult {
		reply, err := c.Submit([]byte(suiteBody))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Result(reply.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(fileOrder), run(lpt)
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if !reflect.DeepEqual(a.Entries[i].Summary, b.Entries[i].Summary) {
			t.Fatalf("entry %q summary differs under LPT:\n%+v\n%+v",
				a.Entries[i].Name, a.Entries[i].Summary, b.Entries[i].Summary)
		}
	}
}

// TestServeOptionValidation pins the new option error paths.
func TestServeOptionValidation(t *testing.T) {
	if _, err := New(Options{Retention: -1}); err == nil {
		t.Error("negative retention accepted")
	}
	if _, err := New(Options{Budget: -time.Second}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := New(Options{Plan: "random"}); err == nil {
		t.Error("unknown plan accepted")
	}
}
