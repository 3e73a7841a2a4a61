package gx

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gxplug/internal/gen/ingest"
)

// exportSnapshot does what `gxgen -export` does: load a registered
// dataset and save it as a binary CSR snapshot.
func exportSnapshot(t *testing.T, dataset string, scale, seed int64) string {
	t.Helper()
	g, err := LoadDataset(dataset, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("%s-%d-%d.gxsnap", dataset, scale, seed))
	if err := ingest.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func attrsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSnapshotRoundTripBitIdentical is the ingestion acceptance pin:
// exporting a registered (dataset, scale, seed) to a snapshot and
// running it through the `file:` kind must reproduce the in-process
// generation run bit for bit — attributes, virtual makespans and
// EntryTotals — on both engines.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	cases := []struct {
		dataset string
		scale   int64
		algo    string
	}{
		{"orkut", 20000, "pagerank"},
		{"wrn", 200000, "sssp"},
	}
	for _, engine := range Engines() {
		for _, tc := range cases {
			t.Run(engine+"/"+tc.dataset, func(t *testing.T) {
				path := exportSnapshot(t, tc.dataset, tc.scale, 42)
				base := Scenario{
					Engine: engine, Algorithm: tc.algo,
					Dataset: tc.dataset, Scale: tc.scale, Seed: 42,
					Nodes: 3, Accel: "gpu", MaxIter: 8,
				}
				viaFile := base
				viaFile.Dataset = "file:" + path

				suite := Suite{Entries: []SuiteEntry{
					{Name: "generated", Scenario: base},
					{Name: "snapshot", Scenario: viaFile},
				}}
				res, err := RunSuite(suite)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				gen, snap := res.Entries[0], res.Entries[1]
				if !attrsBitEqual(gen.Result.Attrs, snap.Result.Attrs) {
					t.Error("attributes differ between generated and snapshot runs")
				}
				if gen.Result.Time != snap.Result.Time {
					t.Errorf("virtual makespan differs: generated %v, snapshot %v",
						gen.Result.Time, snap.Result.Time)
				}
				if gen.Result.Iterations != snap.Result.Iterations {
					t.Errorf("iterations differ: %d vs %d", gen.Result.Iterations, snap.Result.Iterations)
				}
				if gen.Totals != snap.Totals {
					t.Errorf("EntryTotals differ:\n generated %+v\n snapshot  %+v", gen.Totals, snap.Totals)
				}

				// The same must hold for solo runs outside a suite.
				soloGen, err := Run(base)
				if err != nil {
					t.Fatal(err)
				}
				soloSnap, err := Run(viaFile)
				if err != nil {
					t.Fatal(err)
				}
				if !attrsBitEqual(soloGen.Attrs, soloSnap.Attrs) || soloGen.Time != soloSnap.Time {
					t.Error("solo gx.Run differs between generated and snapshot runs")
				}
			})
		}
	}
}

// TestFileEdgeListEndToEnd runs a real (hand-written) SNAP-style edge
// list through every layer: auto-sniffed and explicit form, both
// engines, deterministic across repeats.
func TestFileEdgeListEndToEnd(t *testing.T) {
	// A two-community toy graph with sparse original ids.
	var sb strings.Builder
	sb.WriteString("# toy social graph\n")
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j {
				fmt.Fprintf(&sb, "%d\t%d\n", 100+i, 100+j)
			}
		}
	}
	sb.WriteString("107 900\n900 905\n905 900\n")
	path := filepath.Join(t.TempDir(), "toy.el")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, engine := range Engines() {
		s := Scenario{
			Engine: engine, Algorithm: "cc",
			Dataset: "file:" + path, Nodes: 2, Accel: "cpu",
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		auto, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		s.Dataset = "file+edgelist:" + path
		explicit, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !attrsBitEqual(auto.Attrs, explicit.Attrs) || auto.Time != explicit.Time {
			t.Fatalf("%s: auto-sniffed and explicit edge-list runs differ", engine)
		}
		if len(auto.Attrs) != 10 {
			t.Fatalf("%s: expected 10 relabeled vertices, got %d attrs", engine, len(auto.Attrs))
		}
	}

	// Declaring the wrong format must fail loudly, not misparse.
	s := Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "file+snapshot:" + path, Nodes: 2}
	if _, err := Run(s); err == nil {
		t.Fatal("edge list accepted as snapshot")
	}
}

// TestFileRef pins the one reference grammar across its four kinds: for
// each kind × condition the same error must surface from Validate, a
// solo Run and RunSuite — at Validate time when the reference itself is
// wrong (malformed, missing, not a regular file, wrong kind for the
// field), at load time with the same FailureClass when only the content
// is (a pin mismatch).
func TestFileRef(t *testing.T) {
	dir := t.TempDir()
	el := filepath.Join(dir, "g.el")
	if err := os.WriteFile(el, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gxb := filepath.Join(dir, "s.gxb")
	if err := ingest.SaveBatchStreamFile(gxb, streamBatches()); err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		prefix, path string
		stream       bool
	}{
		{"file:", el, false},
		{"file+snapshot:", exportSnapshot(t, "orkut", 20000, 42), false},
		{"file+edgelist:", el, false},
		{"file+batches:", gxb, true},
	}
	// scenario puts ref in the dataset or the batches.stream field.
	scenario := func(ref string, stream bool) Scenario {
		if stream {
			s := dynamicScenario("graphx", "cc", "")
			s.Batches = &BatchSpec{Stream: ref}
			return s
		}
		return Scenario{Engine: "graphx", Algorithm: "cc", Dataset: ref, Nodes: 2, MaxIter: 3}
	}
	type tcase struct {
		name, ref string
		stream    bool
		wantErr   string // "" = the reference works end to end
		class     string // ClassValidation: rejected up front; else the class of the load failure
	}
	var cases []tcase
	for _, k := range kinds {
		sha, err := fileSHA256(k.path)
		if err != nil {
			t.Fatal(err)
		}
		wrongField := "want file+batches:PATH"
		if k.stream {
			wrongField = "names a batch stream, not a graph"
		}
		for _, c := range []tcase{
			{"ok", k.prefix + k.path, k.stream, "", ""},
			{"pinned", k.prefix + k.path + "#sha256=" + sha, k.stream, "", ""},
			{"missing file", k.prefix + k.path + ".missing", k.stream, "no such file", ClassValidation},
			{"directory", k.prefix + dir, k.stream, "not a regular file", ClassValidation},
			{"empty path", k.prefix, k.stream, "empty file path", ClassValidation},
			{"malformed sha", k.prefix + k.path + "#sha256=zz", k.stream, "malformed sha256 digest", ClassValidation},
			{"pin mismatch", k.prefix + k.path + "#sha256=" + flipHex(sha), k.stream, "does not match pinned", ClassIO},
			{"wrong field", k.prefix + k.path, !k.stream, wrongField, ClassValidation},
		} {
			c.name = k.prefix + "/" + c.name
			cases = append(cases, c)
		}
	}
	cases = append(cases,
		tcase{"unknown kind", "file+parquet:" + el, false, "unknown file kind", ClassValidation},
		tcase{"no path separator", "file+snapshot", false, "want file+KIND:PATH", ClassValidation},
		tcase{"wrong content for kind", "file+snapshot:" + el, false, "snapshot header", ClassIO},
		tcase{"not the file kind", "filesystem-graph", false, "unknown dataset", ClassValidation}, // registry error
		tcase{"stream not the file kind", "batches:" + gxb, true, "want file+batches:PATH", ClassValidation},
	)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := scenario(tc.ref, tc.stream)
			suite := Suite{Entries: []SuiteEntry{{Name: "e", Scenario: s}}}
			// fails asserts err carries the case's message and, where a
			// class is given, its FailureClass.
			fails := func(surface string, err error, class string) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s: error %v, want substring %q", surface, err, tc.wantErr)
				} else if class != "" && FailureClass(err) != class {
					t.Errorf("%s: error %v classified %q, want %q", surface, err, FailureClass(err), class)
				}
			}
			verr := s.Validate()
			_, rerr := Run(s)
			res, serr := RunSuite(suite)
			if tc.class == ClassValidation {
				fails("Validate", verr, "")
				fails("Run", rerr, ClassValidation)
				fails("RunSuite", serr, "")
				return
			}
			if verr != nil || serr != nil {
				t.Fatalf("valid reference rejected: Validate %v, RunSuite %v", verr, serr)
			}
			entry := res.Entries[0]
			if tc.wantErr == "" {
				if rerr != nil || entry.Err != nil {
					t.Errorf("unexpected error: Run %v, RunSuite entry %v", rerr, entry.Err)
				}
				return
			}
			fails("Run", rerr, tc.class)
			fails("RunSuite entry", entry.Err, tc.class)
			if entry.Class != tc.class {
				t.Errorf("RunSuite entry: class %q, want %q", entry.Class, tc.class)
			}
		})
	}
}

// TestSuiteSingleLoadPerDistinctFile extends the exactly-one-load
// guarantee to file-backed entries: a suite naming one file from many
// concurrent entries digests and loads it once.
func TestSuiteSingleLoadPerDistinctFile(t *testing.T) {
	path := exportSnapshot(t, "orkut", 20000, 42)
	var entries []SuiteEntry
	for i, engine := range []string{"graphx", "powergraph", "graphx", "powergraph"} {
		entries = append(entries, SuiteEntry{
			Name: fmt.Sprintf("e%d", i),
			Scenario: Scenario{
				Engine: engine, Algorithm: "pagerank",
				Dataset: "file:" + path, Nodes: 1 + i%2, Accel: "gpu", MaxIter: 3,
			},
		})
	}
	res, err := RunSuite(Suite{Entries: entries}, WithPool(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Cache.GraphLoads != 1 {
		t.Fatalf("GraphLoads = %d, want 1 (single file loaded once)", res.Cache.GraphLoads)
	}
	if res.Cache.GraphHits != int64(len(entries)-1) {
		t.Fatalf("GraphHits = %d, want %d", res.Cache.GraphHits, len(entries)-1)
	}
}

// TestSuiteSingleParsePerDistinctStream is the same guarantee for batch
// streams: N dynamic entries naming one `file+batches:` stream parse it
// exactly once through the suite's shared cache — runs load their
// batches where the planner does — and a rewritten stream is parsed
// again as a distinct entry.
func TestSuiteSingleParsePerDistinctStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.gxb")
	if err := ingest.SaveBatchStreamFile(path, streamBatches()); err != nil {
		t.Fatal(err)
	}
	var entries []SuiteEntry
	for i, engine := range []string{"graphx", "powergraph", "graphx", "powergraph"} {
		s := dynamicScenario(engine, "cc", "")
		s.Nodes = 1 + i/2
		s.Batches = &BatchSpec{Stream: "file+batches:" + path}
		entries = append(entries, SuiteEntry{Name: fmt.Sprintf("e%d", i), Scenario: s})
	}
	cache := NewDatasetCache()
	run := func(wantBoundaries int) {
		t.Helper()
		res, err := RunSuite(Suite{Entries: entries}, WithPool(4), WithCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Entries {
			if len(e.Result.Batches) != wantBoundaries {
				t.Fatalf("%s ran %d boundaries, want %d", e.Name, len(e.Result.Batches), wantBoundaries)
			}
		}
	}
	run(4)
	if st := cache.streams.Stats(); st.Entries != 1 || st.Hits != int64(len(entries)-1) {
		t.Fatalf("stream parsed %d times with %d hits, want 1 parse and %d hits", st.Entries, st.Hits, len(entries)-1)
	}
	if st := cache.Stats(); st.GraphLoads != 1 {
		t.Fatalf("GraphLoads = %d, want 1 (stream loads are not graph loads)", st.GraphLoads)
	}

	if err := ingest.SaveBatchStreamFile(path, streamBatches()[:1]); err != nil {
		t.Fatal(err)
	}
	run(2)
	if st := cache.streams.Stats(); st.Entries != 2 {
		t.Fatalf("rewritten stream: %d parsed entries, want 2 (old and new content)", st.Entries)
	}
}

// TestDatasetCacheRedigestsRewrittenFile pins the path+digest keying:
// rewriting a file between requests on one shared cache yields a fresh
// load instead of the stale graph.
func TestDatasetCacheRedigestsRewrittenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.el")
	if err := os.WriteFile(path, []byte("0 1\n1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := NewDatasetCache()
	g1, err := cache.Graph("file:"+path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumVertices() != 2 {
		t.Fatalf("first load: %d vertices", g1.NumVertices())
	}
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := cache.Graph("file:"+path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 3 {
		t.Fatalf("rewritten file served stale graph: %d vertices", g2.NumVertices())
	}
	st := cache.Stats()
	if st.GraphLoads != 2 {
		t.Fatalf("GraphLoads = %d, want 2 (old and new content)", st.GraphLoads)
	}
}

// TestDatasetCacheKeysFileFormat pins the (path, digest, format) cache
// key: addressing one file with the wrong declared format must not
// share a slot with the correct form in either order.
func TestDatasetCacheKeysFileFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.el")
	if err := os.WriteFile(path, []byte("0 1\n1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Wrong form first: its error must not block the correct form.
	cache := NewDatasetCache()
	if _, err := cache.Graph("file+snapshot:"+path, 0, 0); err == nil {
		t.Fatal("edge list accepted as snapshot")
	}
	if _, err := cache.Graph("file:"+path, 0, 0); err != nil {
		t.Fatalf("correct form poisoned by earlier wrong-format entry: %v", err)
	}
	// Correct form first: the wrong form must still error, not silently
	// reuse the cached graph.
	cache = NewDatasetCache()
	if _, err := cache.Graph("file:"+path, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Graph("file+snapshot:"+path, 0, 0); err == nil {
		t.Fatal("wrong-format entry masked by cached correct-format graph")
	}
	// Sniffed and declared edge-list forms share one entry.
	st := cache.Stats()
	if _, err := cache.Graph("file+edgelist:"+path, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats(); got.GraphHits != st.GraphHits+1 {
		t.Fatalf("file: and file+edgelist: did not share a cache entry: %+v -> %+v", st, got)
	}
}

// TestDatasetCacheFileErrorsNotSticky pins the transient-failure
// behavior: a failed file load is not memoized, so repairing the file
// recovers even through one long-lived cache.
func TestDatasetCacheFileErrorsNotSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.gxsnap")
	if err := os.WriteFile(path, []byte("GXSNAPgarbage-not-a-real-snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := NewDatasetCache()
	if _, err := cache.Graph("file:"+path, 0, 0); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if st := cache.Stats(); st.GraphLoads != 0 {
		t.Fatalf("failed load memoized: GraphLoads = %d, want 0", st.GraphLoads)
	}
	g, err := LoadDataset("orkut", 20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := cache.Graph("file:"+path, 0, 0)
	if err != nil {
		t.Fatalf("repaired file still failing through the same cache: %v", err)
	}
	if back.NumVertices() != g.NumVertices() {
		t.Fatalf("repaired load returned %d vertices, want %d", back.NumVertices(), g.NumVertices())
	}
}
