package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gxplug/gx"
	"gxplug/internal/serve"
)

// syncBuffer lets the daemon goroutine write stdout while the test reads
// it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`gxd: listening on (\S+)`)

// startGXD runs the real daemon entry point on a kernel-assigned port
// and returns its address plus a stop/join pair.
func startGXD(t *testing.T, args ...string) (addr string, stdout *syncBuffer, stop chan struct{}, join func() error) {
	t.Helper()
	stdout = &syncBuffer{}
	stop = make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), stdout, io.Discard, stop)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenLine.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("gxd exited before listening: %v\n%s", err, stdout.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("gxd never printed its address:\n%s", stdout.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return addr, stdout, stop, func() error { return <-errc }
}

// TestGXDEndToEnd boots the daemon over a real TCP socket, submits the
// gxrun suite fixture through the serve client, renders the streamed
// reports exactly as `gxrun -remote` does, and requires the bytes to
// match the gxrun golden. A resubmission must be served from the result
// cache — zero engine supersteps — and render the identical bytes.
// Finally the stop channel closes and the daemon must drain cleanly.
func TestGXDEndToEnd(t *testing.T) {
	addr, stdout, stop, join := startGXD(t)

	golden, err := os.ReadFile("../gxrun/testdata/suite-pagerank-mix.golden")
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile("../gxrun/testdata/suite-pagerank-mix.json")
	if err != nil {
		t.Fatal(err)
	}

	client := serve.NewClient(addr)
	defer client.Close()
	render := func() (string, int64) {
		reply, err := client.Submit(body)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		printed, n := 0, 3
		var supersteps int64 = -1
		fmt.Fprintf(&out, "suite pagerank-mix: %d entries\n", n)
		if err := client.Stream(reply.ID, func(ev serve.Event) error {
			switch ev.Type {
			case "entry":
				printed++
				serve.RenderEntry(&out, printed, n, *ev.Report)
			case "done":
				serve.RenderSuiteSummary(&out, ev.Result.Entries, ev.Result.Cache)
				supersteps = ev.Result.Supersteps
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out.String(), supersteps
	}

	first, steps1 := render()
	if first != string(golden) {
		t.Fatalf("streamed report differs from gxrun golden:\n--- gxd\n%s--- golden\n%s", first, golden)
	}
	if steps1 <= 0 {
		t.Fatalf("first job ran %d supersteps", steps1)
	}

	second, steps2 := render()
	if steps2 != 0 {
		t.Fatalf("resubmission ran %d supersteps, want 0 (result cache)", steps2)
	}
	if second != string(golden) {
		t.Fatalf("cache-served report differs from golden:\n--- gxd\n%s--- golden\n%s", second, golden)
	}

	close(stop)
	if err := join(); err != nil {
		t.Fatalf("gxd exit: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"gxd: draining", "gxd: drained"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestGXDManifestFlag boots the daemon with -manifest and submits a
// logically-named scenario.
func TestGXDManifestFlag(t *testing.T) {
	dir := t.TempDir()
	graph := dir + "/toy.el"
	if err := os.WriteFile(graph, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte("0 1\n1 2\n2 0\n"))
	manifest := dir + "/datasets.json"
	if err := os.WriteFile(manifest, []byte(fmt.Sprintf(
		`{"datasets": {"toy": "file+edgelist:%s#sha256=%s"}}`, graph, hex.EncodeToString(sum[:]))), 0o644); err != nil {
		t.Fatal(err)
	}

	addr, _, stop, join := startGXD(t, "-manifest", manifest)
	client := serve.NewClient(addr)
	defer client.Close()
	reply, err := client.Submit([]byte(`{"engine": "graphx", "algorithm": "cc", "dataset": "toy", "nodes": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Result(reply.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("manifest run failed: %+v", res.Entries)
	}
	close(stop)
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestGXDCostAdmission boots the daemon with an admission budget too low
// for any real suite (plus -plan and -retain, which must also reach the
// serving layer) and requires the submission to bounce with 422 and a
// CostReject body carrying the planner's per-entry estimates.
func TestGXDCostAdmission(t *testing.T) {
	addr, _, stop, join := startGXD(t, "-budget", "1ns", "-plan", "lpt", "-retain", "8")
	body, err := os.ReadFile("../gxrun/testdata/suite-pagerank-mix.json")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post("http://"+addr+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget submission: HTTP %d", resp.StatusCode)
	}
	var rej serve.CostReject
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.Predicted <= rej.Budget || len(rej.Entries) != 3 {
		t.Fatalf("reject body %+v", rej)
	}

	// The thin client reports the same rejection as a 422 error.
	client := serve.NewClient(addr)
	defer client.Close()
	if _, err := client.Submit(body); err == nil || !strings.Contains(err.Error(), "422") {
		t.Fatalf("client submit over budget: %v", err)
	}

	close(stop)
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestGXDStatsPersistence boots the daemon with -stats pointing at a
// missing file (fresh history), runs one scenario, drains, and requires
// the recorded predicted-vs-actual history to land in the file. A second
// daemon booted on the same file must report the restored history size in
// /v1/healthz before running anything.
func TestGXDStatsPersistence(t *testing.T) {
	statsFile := t.TempDir() + "/planner.json"

	addr, _, stop, join := startGXD(t, "-stats", statsFile)
	client := serve.NewClient(addr)
	defer client.Close()
	reply, err := client.Submit([]byte(`{"engine": "graphx", "algorithm": "cc", "dataset": "orkut", "scale": 500, "nodes": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Result(reply.ID, true); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := join(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatalf("drain did not persist stats: %v", err)
	}
	st := new(gx.PlannerStats)
	if err := json.Unmarshal(data, st); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("persisted history has %d keys, want 1", st.Len())
	}

	// Reboot on the persisted file: healthz must see the history without
	// a single submission.
	addr2, _, stop2, join2 := startGXD(t, "-stats", statsFile)
	resp, err := http.Get("http://" + addr2 + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Planner != 1 {
		t.Fatalf("restarted healthz planner = %d, want 1", h.Planner)
	}
	close(stop2)
	if err := join2(); err != nil {
		t.Fatal(err)
	}
}

// TestGXDBadFlags pins flag and argument failure modes without binding a
// socket.
func TestGXDBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"stray"}, io.Discard, io.Discard, nil); err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("stray args: %v", err)
	}
	if err := run([]string{"-manifest", "/nonexistent.json"}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("missing manifest accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:bad"}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("bad addr accepted")
	}
	if err := run([]string{"-plan", "random"}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("unknown plan accepted")
	}
	if err := run([]string{"-budget", "-5s"}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("negative budget accepted")
	}
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-stats", bad}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("malformed stats file accepted")
	}
}
