package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gxplug/gx"
	"gxplug/internal/gen/ingest"
)

// TestScenarioFileMatchesFlags is the golden smoke test: the scenario
// fixture and the equivalent flag invocation must print byte-identical
// reports — same virtual time, same iteration counts, same result digest
// — because both build the same gx.Scenario.
func TestScenarioFileMatchesFlags(t *testing.T) {
	var fromFile, fromFlags bytes.Buffer
	if err := run([]string{"-scenario", "testdata/pagerank-pg-4n.json"}, &fromFile, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"-engine", "powergraph", "-algo", "pagerank", "-dataset", "orkut",
		"-scale", "4000", "-seed", "42", "-nodes", "4",
		"-accel", "gpu", "-gpus", "1", "-maxiter", "10",
	}, &fromFlags, io.Discard); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != fromFlags.String() {
		t.Fatalf("scenario file and flags disagree:\n--- scenario\n%s--- flags\n%s",
			fromFile.String(), fromFlags.String())
	}
	if !strings.Contains(fromFile.String(), "result      :") {
		t.Fatalf("report missing result digest:\n%s", fromFile.String())
	}
}

// TestCacheCapScenarioMatchesFlags extends the golden fixture to the
// bounded-cache dimension: a scenario file carrying cache_capacity and
// the equivalent -cachecap flag invocation must print byte-identical
// reports, and the bound must surface in the cache line (evictions).
func TestCacheCapScenarioMatchesFlags(t *testing.T) {
	var fromFile, fromFlags bytes.Buffer
	if err := run([]string{"-scenario", "testdata/pagerank-pg-4n-cachecap.json"}, &fromFile, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"-engine", "powergraph", "-algo", "pagerank", "-dataset", "orkut",
		"-scale", "4000", "-seed", "42", "-nodes", "4",
		"-accel", "gpu", "-gpus", "1", "-maxiter", "10", "-cachecap", "32",
	}, &fromFlags, io.Discard); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != fromFlags.String() {
		t.Fatalf("cachecap scenario file and flags disagree:\n--- scenario\n%s--- flags\n%s",
			fromFile.String(), fromFlags.String())
	}
	if !strings.Contains(fromFile.String(), "evictions") {
		t.Fatalf("bounded-cache report missing eviction stats:\n%s", fromFile.String())
	}
}

// TestCacheCapRejectsNativeRuns: bounding a cache that does not exist
// (native execution) is a loud validation error, not a silent no-op.
func TestCacheCapRejectsNativeRuns(t *testing.T) {
	err := run([]string{"-accel", "none", "-cachecap", "64"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "cache_capacity") {
		t.Fatalf("native -cachecap accepted: %v", err)
	}
}

// TestSuiteGolden is the suite-mode golden fixture: the checked-in suite
// file must print exactly the checked-in report, and the report must be
// bit-identical between pool sizes 1 and 4 — concurrency is a wall-clock
// optimization, never an output dimension.
func TestSuiteGolden(t *testing.T) {
	var pool1, pool4 bytes.Buffer
	if err := run([]string{"-suite", "testdata/suite-pagerank-mix.json", "-pool", "1"}, &pool1, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-suite", "testdata/suite-pagerank-mix.json", "-pool", "4"}, &pool4, io.Discard); err != nil {
		t.Fatal(err)
	}
	if pool1.String() != pool4.String() {
		t.Fatalf("suite output differs across pool sizes:\n--- pool 1\n%s--- pool 4\n%s",
			pool1.String(), pool4.String())
	}
	golden, err := os.ReadFile("testdata/suite-pagerank-mix.golden")
	if err != nil {
		t.Fatal(err)
	}
	if pool1.String() != string(golden) {
		t.Fatalf("suite output diverges from golden:\n--- got\n%s--- want\n%s",
			pool1.String(), golden)
	}
	// The cache accounting line is the single-load guarantee surfaced to
	// users: two distinct datasets, three entries.
	if !strings.Contains(pool1.String(), "dataset cache: 2 graphs loaded (1 hits)") {
		t.Fatalf("cache accounting missing:\n%s", pool1.String())
	}
}

// TestSuiteFlagConflicts: -suite excludes -scenario and every per-run
// flag (they would be silently dead), negative pools surface RunSuite's
// validation, and suite files get the same loud unknown-field treatment
// as scenario files.
func TestSuiteFlagConflicts(t *testing.T) {
	err := run([]string{"-suite", "a.json", "-scenario", "b.json"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "cannot be combined with -scenario") {
		t.Fatalf("conflicting -scenario accepted: %v", err)
	}
	err = run([]string{"-suite", "a.json", "-cachecap", "64", "-maxiter", "5"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-cachecap") || !strings.Contains(err.Error(), "-maxiter") {
		t.Fatalf("dead per-run flags accepted alongside -suite: %v", err)
	}
	err = run([]string{"-suite", "testdata/suite-pagerank-mix.json", "-pool", "-3"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "want ≥ 1") {
		t.Fatalf("negative pool accepted: %v", err)
	}
	err = run([]string{"-algo", "pagerank", "-pool", "4"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-pool requires -suite") {
		t.Fatalf("dead -pool accepted without -suite: %v", err)
	}
	dir := t.TempDir()
	path := dir + "/bad-suite.json"
	if err := os.WriteFile(path, []byte(`{"entries": [{"engin": "powergraph"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-suite", path}, io.Discard, io.Discard); err == nil {
		t.Fatal("suite with a typo field ran")
	}
}

// TestScenarioFlagConflicts: a scenario file carries every per-run
// field, so a per-field flag beside -scenario would be silently dead; each
// one set is named in the error, before the file is even read.
func TestScenarioFlagConflicts(t *testing.T) {
	err := run([]string{"-scenario", "testdata/pagerank-pg-4n.json", "-nodes", "8", "-no-opt", "-algo", "sssp"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-scenario cannot be combined with -algo, -no-opt, -nodes") {
		t.Fatalf("dead per-field flags accepted alongside -scenario: %v", err)
	}
	for _, flag := range []string{"-engine", "-dataset", "-scale", "-seed", "-accel", "-gpus", "-maxiter", "-cachecap", "-k", "-net"} {
		err := run([]string{"-scenario", "missing.json", flag, "1"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "cannot be combined with "+flag) {
			t.Errorf("%s accepted alongside -scenario: %v", flag, err)
		}
	}
}

// TestSuitePlanLPT: -plan lpt prints the cost-model schedule, then runs
// the suite with a report bit-identical to the unplanned run — the plan
// reorders dispatch, never results. Only the closing dataset-cache
// accounting may differ, because the planner's dry pass warms the cache.
func TestSuitePlanLPT(t *testing.T) {
	var plain, planned bytes.Buffer
	if err := run([]string{"-suite", "testdata/suite-pagerank-mix.json", "-pool", "1"}, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-suite", "testdata/suite-pagerank-mix.json", "-pool", "4", "-plan", "lpt"}, &planned, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := planned.String()
	for _, want := range []string{
		"plan lpt: 3 entries priced by the cost model",
		"predicted: serial ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan block missing %q:\n%s", want, out)
		}
	}
	idx := strings.Index(out, "suite pagerank-mix")
	if idx < 0 {
		t.Fatalf("suite report missing after plan block:\n%s", out)
	}
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.Contains(line, "dataset cache:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(out[idx:]) != strip(plain.String()) {
		t.Fatalf("planned report differs beyond cache accounting:\n--- planned\n%s--- plain\n%s",
			out[idx:], plain.String())
	}
}

// TestPlanFlagConflicts: -plan qualifies -suite and must name a known
// plan.
func TestPlanFlagConflicts(t *testing.T) {
	err := run([]string{"-algo", "pagerank", "-plan", "lpt"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-plan requires -suite") {
		t.Fatalf("dead -plan accepted without -suite: %v", err)
	}
	err = run([]string{"-suite", "testdata/suite-pagerank-mix.json", "-plan", "sjf"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown -plan") {
		t.Fatalf("unknown plan accepted: %v", err)
	}
}

// TestSuiteProgressStreamsEntries: -progress in suite mode prefixes each
// superstep line with its entry name, at pool 1 and — with lines of
// different entries interleaving but every callback serialized against
// the entry reports — at a wide pool too.
func TestSuiteProgressStreamsEntries(t *testing.T) {
	for _, pool := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-suite", "testdata/suite-pagerank-mix.json", "-pool", pool, "-progress"}, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		if strings.Count(out.String(), "pr-pg-gpu [") != 10 {
			t.Fatalf("pool %s: want 10 progress lines for pr-pg-gpu:\n%s", pool, out.String())
		}
	}
}

// TestUnknownNamesListRegistered checks the registry-driven error
// surface: a typo in any registrable flag fails with the registered
// names, not a silent default or a bare failure.
func TestUnknownNamesListRegistered(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-engine", "giraph"}, []string{`unknown engine "giraph"`, "graphx", "powergraph"}},
		{[]string{"-algo", "trianglecount"}, []string{`unknown algorithm "trianglecount"`, "pagerank", "kcore"}},
		{[]string{"-dataset", "friendster"}, []string{`unknown dataset "friendster"`, "orkut", "livejournal"}},
		{[]string{"-accel", "fpga"}, []string{`unknown accelerator "fpga"`, "cpu", "gpu", "none"}},
		{[]string{"-net", "token-ring"}, []string{`unknown network "token-ring"`, "datacenter"}},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil {
			t.Errorf("args %v: expected an error", tc.args)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("args %v: error %q missing %q", tc.args, err, want)
			}
		}
	}
}

// TestProgressFlagStreamsSupersteps checks the observer-backed live
// progress: one line per iteration ahead of the summary.
func TestProgressFlagStreamsSupersteps(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-engine", "graphx", "-algo", "pagerank", "-dataset", "orkut",
		"-scale", "20000", "-nodes", "2", "-accel", "none",
		"-maxiter", "4", "-progress",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(out.String(), "frontier=")
	if lines != 4 {
		t.Fatalf("want 4 progress lines, got %d:\n%s", lines, out.String())
	}
}

// TestBadScenarioFileFails: unknown fields in a scenario file are loud.
func TestBadScenarioFileFails(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bad.json"
	if err := os.WriteFile(path, []byte(`{"engine": "powergraph", "algorthm": "pagerank"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path}, io.Discard, io.Discard); err == nil {
		t.Fatal("scenario with a typo field ran")
	}
}

// TestFileDatasetMatchesGenerated pins the `file:` dataset kind at the
// CLI layer: exporting a dataset snapshot and running it by path must
// produce the same report as generating it in process — identical
// except for the header line naming the dataset.
func TestFileDatasetMatchesGenerated(t *testing.T) {
	g, err := gx.LoadDataset("orkut", 20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "orkut.gxsnap")
	if err := ingest.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	flags := []string{"-algo", "pagerank", "-nodes", "2", "-maxiter", "5", "-scale", "20000"}
	var fromGen, fromFile bytes.Buffer
	if err := run(append([]string{"-dataset", "orkut"}, flags...), &fromGen, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dataset", "file:" + path, "-algo", "pagerank", "-nodes", "2", "-maxiter", "5"}, &fromFile, io.Discard); err != nil {
		t.Fatal(err)
	}
	trim := func(s string) string { return s[strings.Index(s, "\n"):] }
	if trim(fromGen.String()) != trim(fromFile.String()) {
		t.Fatalf("file-backed run differs from generated run:\n--- generated\n%s--- file\n%s",
			fromGen.String(), fromFile.String())
	}
}

// TestSuiteFaultGolden is the fault-injection suite fixture: recoverable
// stalls are absorbed (slower virtual time, identical results), fatal
// crashes are classified and the invocation exits non-zero, and the
// report stays bit-identical across pool sizes.
func TestSuiteFaultGolden(t *testing.T) {
	var pool1, pool4 bytes.Buffer
	err1 := run([]string{"-suite", "testdata/suite-faults.json", "-pool", "1"}, &pool1, io.Discard)
	if err1 == nil || !strings.Contains(err1.Error(), "1 of 3 suite entries failed") {
		t.Fatalf("suite with a crashed entry exited clean: %v", err1)
	}
	if err4 := run([]string{"-suite", "testdata/suite-faults.json", "-pool", "4"}, &pool4, io.Discard); err4 == nil || err4.Error() != err1.Error() {
		t.Fatalf("pool-4 error differs: %v vs %v", err4, err1)
	}
	if pool1.String() != pool4.String() {
		t.Fatalf("fault-suite output differs across pool sizes:\n--- pool 1\n%s--- pool 4\n%s",
			pool1.String(), pool4.String())
	}
	golden, err := os.ReadFile("testdata/suite-faults.golden")
	if err != nil {
		t.Fatal(err)
	}
	if pool1.String() != string(golden) {
		t.Fatalf("fault-suite output diverges from golden:\n--- got\n%s--- want\n%s",
			pool1.String(), golden)
	}
	for _, want := range []string{
		"faults      : 1 injected, 2 stall retries absorbed",
		"error (fault) :",
	} {
		if !strings.Contains(pool1.String(), want) {
			t.Fatalf("fault-suite report missing %q:\n%s", want, pool1.String())
		}
	}
}

// TestCheckpointResumeCLI drives the crash-then-resume path end to end:
// a run killed by an injected daemon crash leaves a checkpoint behind,
// and rerunning with -resume completes with the exact report of an
// uninterrupted checkpointed run.
func TestCheckpointResumeCLI(t *testing.T) {
	dir := t.TempDir()
	scenario := filepath.Join(dir, "crashy.json")
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.WriteFile(scenario, []byte(`{
		"engine": "powergraph", "algorithm": "pagerank",
		"dataset": "orkut", "scale": 4000, "seed": 42,
		"nodes": 2, "accel": "cpu", "maxiter": 6,
		"faults": [{"kind": "daemon-crash", "node": 1, "superstep": 3}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	err := run([]string{"-scenario", scenario, "-checkpoint", ckpt}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "lost to injected fault") {
		t.Fatalf("crashing run exited clean: %v", err)
	}
	if _, statErr := os.Stat(filepath.Join(ckpt, "checkpoint.gxsnap")); statErr != nil {
		t.Fatalf("crash left no checkpoint: %v", statErr)
	}

	var resumed bytes.Buffer
	if err := run([]string{"-scenario", scenario, "-checkpoint", ckpt, "-resume"}, &resumed, io.Discard); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !strings.Contains(resumed.String(), "resuming "+filepath.Join(ckpt, "checkpoint.gxsnap")+" from superstep 3") {
		t.Fatalf("resume header missing:\n%s", resumed.String())
	}

	// The reference: the same scenario minus the fault, checkpointing on
	// the same schedule. Reports must match from the summary header on
	// (the resume path prints one extra leading line).
	clean := filepath.Join(dir, "clean.json")
	if err := os.WriteFile(clean, []byte(`{
		"engine": "powergraph", "algorithm": "pagerank",
		"dataset": "orkut", "scale": 4000, "seed": 42,
		"nodes": 2, "accel": "cpu", "maxiter": 6
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := run([]string{"-scenario", clean, "-checkpoint", filepath.Join(dir, "ckpt2")}, &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Only the logical-run lines are bit-identical: virtual times,
	// iteration counts and the result digest. Physical-work counters
	// (entities, checkpoints saved) cover the resumed segment only.
	contract := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "time        :") || strings.Contains(line, "iterations  :") ||
				strings.Contains(line, "middleware  :") || strings.Contains(line, "result      :") ||
				strings.Contains(line, "over 2 nodes") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if contract(resumed.String()) != contract(want.String()) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- resumed\n%s--- clean\n%s",
			resumed.String(), want.String())
	}
}

// TestBatchesTableCLI drives a dynamic scenario through the CLI:
// -batches renders one convergence row per batch boundary (seed graph
// plus each delta), each carrying the boundary's attrs digest; without
// the flag the summary stays table-free; and the flag is loud when the
// scenario has no batch spec.
func TestBatchesTableCLI(t *testing.T) {
	scenario := "../../gx/testdata/digest-batches.json" // 2 inline batches
	var out bytes.Buffer
	if err := run([]string{"-scenario", scenario, "-batches"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "batches     : 3 boundaries") {
		t.Fatalf("batch table header missing:\n%s", s)
	}
	for _, col := range []string{"seq", "adds", "drops", "dirty", "iter", "apply", "time", "digest"} {
		if !strings.Contains(s, col) {
			t.Fatalf("batch table missing column %q:\n%s", col, s)
		}
	}
	if rows := regexp.MustCompile(`(?m)^ +\d+ +\d+ +\d+ +\d+ +\d+ .* [0-9a-f]{16}`).FindAllString(s, -1); len(rows) != 3 {
		t.Fatalf("want 3 digest-bearing table rows, got %d:\n%s", len(rows), s)
	}

	var plain bytes.Buffer
	if err := run([]string{"-scenario", scenario}, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "batches     :") {
		t.Fatalf("table printed without -batches:\n%s", plain.String())
	}

	err := run([]string{"-algo", "pagerank", "-batches"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-batches requires") {
		t.Fatalf("dead -batches accepted without a batch scenario: %v", err)
	}
	err = run([]string{"-suite", "testdata/suite-pagerank-mix.json", "-batches"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-batches") {
		t.Fatalf("-batches accepted alongside -suite: %v", err)
	}
}

// TestCheckpointFlagConflicts: -every/-resume qualify -checkpoint, and
// checkpointing is a single-run feature.
func TestCheckpointFlagConflicts(t *testing.T) {
	err := run([]string{"-algo", "pagerank", "-every", "2"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-every requires -checkpoint") {
		t.Fatalf("dead -every accepted: %v", err)
	}
	err = run([]string{"-algo", "pagerank", "-resume"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-resume requires -checkpoint") {
		t.Fatalf("dead -resume accepted: %v", err)
	}
	err = run([]string{"-suite", "testdata/suite-faults.json", "-checkpoint", "x"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Fatalf("-checkpoint accepted alongside -suite: %v", err)
	}
}
