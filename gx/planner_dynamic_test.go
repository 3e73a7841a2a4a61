package gx

// Planner and cache coverage for the dynamic-graph axis: pricing batch
// streams (inline and file-backed) and the stream memo inside
// DatasetCache. The conformance contract itself (bit-identical
// boundaries, makespan ordering) is pinned in dynamic_test.go; these
// tests pin the estimating/serving plumbing around it.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func TestPlannerDynamicEstimate(t *testing.T) {
	p := NewPlanner(nil)

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
	// Every boundary is priced at the seed boundary's cost in either mode:
	// what scratch costs, and a bound incremental never exceeds.
	if scratch != inc {
		t.Errorf("scratch estimate %+v differs from incremental %+v", scratch, inc)
	}
	if want := 4 * base.Makespan; scratch.Makespan != want {
		t.Errorf("scratch Makespan = %v, want %v", scratch.Makespan, want)
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
