package gx

// Planner and cache coverage for the dynamic-graph axis: pricing batch
// streams (inline and file-backed), the serialized planner history that
// gxd -stats persists across restarts, and the stream memo inside
// DatasetCache. The conformance contract itself (bit-identical
// boundaries, makespan ordering) is pinned in dynamic_test.go; these
// tests pin the estimating/serving plumbing around it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gxplug/internal/gen/ingest"
	"gxplug/internal/graph"
)

// streamBatches is dynamicDeltas in substrate form, for writing .gxb
// stream files that mirror the inline fixtures.
func streamBatches() []graph.EdgeBatch {
	return []graph.EdgeBatch{
		{Time: 1, Adds: []graph.Edge{{Src: 0, Dst: 5, Weight: 1}, {Src: 7, Dst: 3, Weight: 1}, {Src: 11, Dst: 2, Weight: 2}}},
		{Time: 2, Adds: []graph.Edge{{Src: 5, Dst: 0, Weight: 1}}, Removes: []graph.Edge{{Src: 7, Dst: 3, Weight: 1}}},
		{Time: 3, Adds: []graph.Edge{{Src: 2, Dst: 9, Weight: 1}}, Removes: []graph.Edge{{Src: 0, Dst: 5, Weight: 1}, {Src: 11, Dst: 2, Weight: 2}}},
	}
}

func TestPlannerStatsJSONRoundTrip(t *testing.T) {
	st, err := NewPlannerStats(8)
	if err != nil {
		t.Fatal(err)
	}
	st.Observe("alpha", 10*time.Millisecond, 12*time.Millisecond)
	st.Observe("beta", 20*time.Millisecond, 16*time.Millisecond)
	// Repeat observations must not re-weight the ratio sums.
	st.Observe("alpha", 10*time.Millisecond, 12*time.Millisecond)

	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	got := new(PlannerStats)
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("Len after round-trip = %d, want 2", got.Len())
	}
	for key, want := range map[string]time.Duration{"alpha": 12 * time.Millisecond, "beta": 16 * time.Millisecond} {
		if d, ok := got.Lookup(key); !ok || d != want {
			t.Errorf("Lookup(%q) = %v, %v; want %v, true", key, d, ok, want)
		}
	}
	if gr, wr := got.Ratio(), st.Ratio(); gr != wr {
		t.Errorf("Ratio after round-trip = %v, want %v", gr, wr)
	}

	// A history serialized over its capacity loads with oldest-first
	// eviction, exactly as live observation would have trimmed it.
	over := `{"capacity":2,"order":["a","b","c"],"actual":{"a":1,"b":2,"c":3},"pred_sum":6,"act_sum":6}`
	evicted := new(PlannerStats)
	if err := json.Unmarshal([]byte(over), evicted); err != nil {
		t.Fatal(err)
	}
	if evicted.Len() != 2 {
		t.Fatalf("over-capacity load Len = %d, want 2", evicted.Len())
	}
	if _, ok := evicted.Lookup("a"); ok {
		t.Error("oldest key survived over-capacity load")
	}
	if d, ok := evicted.Lookup("c"); !ok || d != 3 {
		t.Errorf("newest key after eviction = %v, %v; want 3ns, true", d, ok)
	}

	// Capacity 0 in the document means the default bound.
	def := new(PlannerStats)
	if err := json.Unmarshal([]byte(`{"pred_sum":0,"act_sum":0}`), def); err != nil {
		t.Fatal(err)
	}
	if def.cap != DefaultPlannerHistory {
		t.Errorf("zero-capacity load cap = %d, want %d", def.cap, DefaultPlannerHistory)
	}
}

func TestPlannerStatsJSONErrors(t *testing.T) {
	cases := map[string]string{
		"malformed":       `{not json`,
		"bad capacity":    `{"capacity":-1}`,
		"length mismatch": `{"order":["a"],"actual":{}}`,
		"missing actual":  `{"order":["a","b"],"actual":{"a":1,"c":2}}`,
		"duplicate key":   `{"order":["a","a"],"actual":{"a":1,"b":2}}`,
	}
	for name, doc := range cases {
		st := new(PlannerStats)
		if err := json.Unmarshal([]byte(doc), st); err == nil {
			t.Errorf("%s: Unmarshal accepted %s", name, doc)
		}
	}
	if _, err := NewPlannerStats(-1); err == nil {
		t.Error("NewPlannerStats(-1) accepted")
	}
}

func TestPlannerDynamicEstimate(t *testing.T) {
	p := NewPlanner(nil, nil)

	static := dynamicScenario("graphx", "pagerank", "")
	static.Batches = nil
	base, err := p.Estimate(static)
	if err != nil {
		t.Fatal(err)
	}

	inc, err := p.Estimate(dynamicScenario("graphx", "pagerank", ""))
	if err != nil {
		t.Fatal(err)
	}
	// Three batches: every boundary re-runs the seed's iteration count.
	if want := base.Supersteps * 4; inc.Supersteps != want {
		t.Errorf("incremental Supersteps = %d, want %d", inc.Supersteps, want)
	}
	if inc.Makespan <= base.Makespan {
		t.Errorf("incremental Makespan %v not above static %v", inc.Makespan, base.Makespan)
	}

	scratch, err := p.Estimate(dynamicScenario("graphx", "pagerank", "scratch"))
	if err != nil {
		t.Fatal(err)
	}
	if scratch.Supersteps != inc.Supersteps {
		t.Errorf("scratch Supersteps = %d, want %d", scratch.Supersteps, inc.Supersteps)
	}
	if scratch.Makespan <= inc.Makespan || scratch.Entities <= inc.Entities {
		t.Errorf("scratch (%v, %v entities) not priced above incremental (%v, %v entities)",
			scratch.Makespan, scratch.Entities, inc.Makespan, inc.Entities)
	}
	if want := base.Entities * 4; scratch.Entities != want {
		t.Errorf("scratch Entities = %v, want %v", scratch.Entities, want)
	}

	// The memo returns the identical estimate on a repeat.
	again, err := p.Estimate(dynamicScenario("graphx", "pagerank", ""))
	if err != nil {
		t.Fatal(err)
	}
	if again != inc {
		t.Errorf("memoized estimate %+v differs from first %+v", again, inc)
	}

	// A file-backed stream with the same batches prices identically to
	// the inline form: batchCount loads it through the shared cache.
	path := filepath.Join(t.TempDir(), "stream.gxb")
	if err := ingest.SaveBatchStreamFile(path, streamBatches()); err != nil {
		t.Fatal(err)
	}
	streamed := dynamicScenario("graphx", "pagerank", "")
	streamed.Batches = &BatchSpec{Stream: "file+batches:" + path}
	fromFile, err := p.Estimate(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Supersteps != inc.Supersteps || fromFile.Makespan != inc.Makespan {
		t.Errorf("stream estimate (%d steps, %v) differs from inline (%d steps, %v)",
			fromFile.Supersteps, fromFile.Makespan, inc.Supersteps, inc.Makespan)
	}

	// A missing stream file surfaces as an estimate error, not a panic.
	broken := dynamicScenario("graphx", "pagerank", "")
	broken.Batches = &BatchSpec{Stream: "file+batches:" + filepath.Join(t.TempDir(), "gone.gxb")}
	if _, err := p.Estimate(broken); err == nil {
		t.Error("Estimate accepted a missing stream file")
	}
}

func TestPlannerDynamicHistory(t *testing.T) {
	stats, err := NewPlannerStats(0)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewDatasetCache()
	p := NewPlanner(cache, stats)
	if p.Stats() != stats {
		t.Fatal("Stats() does not return the wired history")
	}

	s := dynamicScenario("graphx", "cc", "")
	model, err := p.Estimate(s)
	if err != nil {
		t.Fatal(err)
	}
	if model.Source != "model" {
		t.Fatalf("pre-history Source = %q, want model", model.Source)
	}

	// A recorded actual for the same key replaces the model makespan.
	key, keyed := scenarioKey(cache, s.WithDefaults())
	if !keyed {
		t.Fatal("dynamic scenario did not produce a stable key")
	}
	stats.Observe(key, model.Makespan, model.Makespan/2)
	hist, err := p.Estimate(s)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Source != "history" || hist.Makespan != model.Makespan/2 {
		t.Errorf("history estimate = %q %v, want history %v", hist.Source, hist.Makespan, model.Makespan/2)
	}

	// A novel scenario is scaled by the history-wide ratio instead.
	other := dynamicScenario("graphx", "pagerank", "")
	scaled, err := p.Estimate(other)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Source != "scaled" {
		t.Errorf("novel-scenario Source = %q, want scaled", scaled.Source)
	}
	raw, err := NewPlanner(cache, nil).Estimate(other)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(float64(raw.Makespan) * stats.Ratio()); scaled.Makespan != want {
		t.Errorf("scaled Makespan = %v, want %v (ratio %v)", scaled.Makespan, want, stats.Ratio())
	}
}

func TestBatchStreamCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.gxb")
	if err := ingest.SaveBatchStreamFile(path, streamBatches()); err != nil {
		t.Fatal(err)
	}
	_, sha, err := ingest.FileDigests(path)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewDatasetCache()
	got, err := cache.BatchStream("file+batches:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("BatchStream loaded %d batches, want 3", len(got))
	}

	// A correct pin loads; a wrong pin is a digest mismatch.
	if _, err := cache.BatchStream("file+batches:" + path + "#sha256=" + sha); err != nil {
		t.Errorf("pinned load failed: %v", err)
	}
	wrong := strings.Repeat("0", 63) + "1"
	if wrong == sha {
		wrong = strings.Repeat("0", 63) + "2"
	}
	_, err = cache.BatchStream("file+batches:" + path + "#sha256=" + wrong)
	var dm *DigestMismatchError
	if !errors.As(err, &dm) {
		t.Errorf("wrong pin error = %v, want DigestMismatchError", err)
	}

	if _, err := cache.BatchStream("nope:" + path); err == nil {
		t.Error("BatchStream accepted an unparseable reference")
	}
	if _, err := cache.BatchStream("file+batches:" + filepath.Join(t.TempDir(), "gone.gxb")); err == nil {
		t.Error("BatchStream accepted a missing file")
	}

	// Purge drops the stream memo; the next load reparses and agrees.
	cache.Purge()
	again, err := cache.BatchStream("file+batches:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(got) {
		t.Fatalf("post-purge reload returned %d batches, want %d", len(again), len(got))
	}
}

// TestBatchListTextStream runs a scenario whose stream is the text
// delta-list form, pinned to its digest, and checks it is bit-identical
// to the same deltas inline — covering the sniff-to-text load path and
// pin verification inside a real run.
func TestBatchListTextStream(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# dynamicDeltas as a text delta list\n")
	for _, b := range streamBatches() {
		for _, e := range b.Adds {
			fmt.Fprintf(&sb, "%d + %d %d %g\n", b.Time, e.Src, e.Dst, e.Weight)
		}
		for _, e := range b.Removes {
			fmt.Fprintf(&sb, "%d - %d %d\n", b.Time, e.Src, e.Dst)
		}
	}
	path := filepath.Join(t.TempDir(), "deltas.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	_, sha, err := ingest.FileDigests(path)
	if err != nil {
		t.Fatal(err)
	}

	s := dynamicScenario("graphx", "cc", "")
	s.Batches = &BatchSpec{Stream: "file+batches:" + path + "#sha256=" + sha}
	fromText, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := Run(dynamicScenario("graphx", "cc", ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromText.Batches) != len(inline.Batches) {
		t.Fatalf("text stream produced %d boundaries, inline %d", len(fromText.Batches), len(inline.Batches))
	}
	for i := range fromText.Batches {
		ft, in := fromText.Batches[i], inline.Batches[i]
		if ft.AttrsDigest != in.AttrsDigest || ft.Iterations != in.Iterations {
			t.Errorf("boundary %d: text (%s, %d iters) differs from inline (%s, %d iters)",
				i, ft.AttrsDigest, ft.Iterations, in.AttrsDigest, in.Iterations)
		}
	}
	if len(fromText.Attrs) != len(inline.Attrs) {
		t.Fatalf("text stream produced %d attrs, inline %d", len(fromText.Attrs), len(inline.Attrs))
	}
	for i := range fromText.Attrs {
		if math.Float64bits(fromText.Attrs[i]) != math.Float64bits(inline.Attrs[i]) {
			t.Fatalf("attr %d: text stream %x differs from inline %x",
				i, math.Float64bits(fromText.Attrs[i]), math.Float64bits(inline.Attrs[i]))
		}
	}
}
