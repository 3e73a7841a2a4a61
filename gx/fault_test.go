package gx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gxplug/internal/gen/ingest"
)

// TestResumeBitIdentical is the fault-tolerance acceptance pin at the gx
// layer: a run killed by an injected daemon crash at every superstep k,
// checkpointed to disk through the snapshot-v2 persistence path and
// resumed from the reloaded file, must converge to the final attributes
// and virtual makespan of a run that never stopped — on both engines,
// with and without a cache_capacity that makes every agent's cache evict.
// (`make race-resume` runs it under the race detector.)
func TestResumeBitIdentical(t *testing.T) {
	discard := func(*CheckpointState) error { return nil }
	for _, eng := range Engines() {
		t.Run(eng, func(t *testing.T) {
			// 0: every cache holds its node's vertex table; 24: every cache
			// evicts, so each cut empties it in both incarnations.
			for _, capacity := range []int{0, 24} {
				t.Run(fmt.Sprintf("cache_capacity=%d", capacity), func(t *testing.T) {
					base := Scenario{
						Engine: eng, Algorithm: "pagerank",
						Dataset: "orkut", Scale: 20000, Seed: 7,
						Nodes: 3, Accel: "cpu", MaxIter: 5, CacheCapacity: capacity,
					}
					g, err := LoadDataset(base.Dataset, base.Scale, base.Seed)
					if err != nil {
						t.Fatal(err)
					}
					// The uninterrupted reference run charges the same checkpoint
					// schedule, it just discards the states.
					want, err := Run(base, WithGraph(g), WithCheckpoint(1, discard))
					if err != nil {
						t.Fatal(err)
					}
					if want.Iterations < 3 {
						t.Fatalf("reference run too short to kill mid-way: %d iterations", want.Iterations)
					}
					for k := 1; k < want.Iterations; k++ {
						path := filepath.Join(t.TempDir(), "checkpoint.gxsnap")
						crash := base
						crash.Faults = []FaultSpec{{Kind: FaultDaemonCrash, Node: 1, Superstep: k}}
						_, err := Run(crash, WithGraph(g), WithCheckpoint(1, func(st *CheckpointState) error {
							return SaveCheckpoint(path, g, st)
						}))
						var fe *FaultError
						if !errors.As(err, &fe) || fe.Kind != FaultDaemonCrash || fe.Superstep != k {
							t.Fatalf("kill at %d: error %v, want daemon-crash FaultError at superstep %d", k, err, k)
						}
						if FailureClass(err) != ClassFault {
							t.Fatalf("kill at %d: classified %q, want %q", k, FailureClass(err), ClassFault)
						}

						g2, st, err := LoadCheckpoint(path)
						if err != nil {
							t.Fatalf("kill at %d: %v", k, err)
						}
						if st.Iteration != k {
							t.Fatalf("kill at %d: latest checkpoint is iteration %d", k, st.Iteration)
						}
						// Resume under the same scenario: the fault plan belongs to
						// the crashed incarnation and is not re-armed.
						got, err := Resume(crash, st, WithGraph(g2), WithCheckpoint(1, discard))
						if err != nil {
							t.Fatalf("resume from %d: %v", k, err)
						}
						if got.Iterations != want.Iterations || got.SkippedSyncs != want.SkippedSyncs {
							t.Fatalf("resume from %d: %d iterations (%d skipped), want %d (%d)",
								k, got.Iterations, got.SkippedSyncs, want.Iterations, want.SkippedSyncs)
						}
						if !attrsBitEqual(got.Attrs, want.Attrs) {
							t.Fatalf("resume from %d: final attributes differ from uninterrupted run", k)
						}
						if got.Time != want.Time || got.UpperTime != want.UpperTime || got.MiddlewareTime != want.MiddlewareTime {
							t.Fatalf("resume from %d: clocks %v/%v/%v, want %v/%v/%v", k,
								got.Time, got.UpperTime, got.MiddlewareTime,
								want.Time, want.UpperTime, want.MiddlewareTime)
						}
					}
				})
			}
		})
	}
}

// TestCheckpointFileRoundTrip pins the snapshot-v2 persistence of a
// checkpoint: every state field survives the disk round trip and the
// graph comes back bit-identical.
func TestCheckpointFileRoundTrip(t *testing.T) {
	g, err := LoadDataset("orkut", 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	var last *CheckpointState
	s := Scenario{
		Engine: "powergraph", Algorithm: "sssp",
		Dataset: "orkut", Scale: 20000, Seed: 3,
		Nodes: 2, Accel: "cpu", MaxIter: 4,
	}
	if _, err := Run(s, WithGraph(g), WithCheckpoint(2, func(st *CheckpointState) error {
		last = st
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint captured")
	}
	path := filepath.Join(t.TempDir(), "ck.gxsnap")
	if err := SaveCheckpoint(path, g, last); err != nil {
		t.Fatal(err)
	}
	g2, back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("graph shape changed: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	if !reflect.DeepEqual(last, back) {
		t.Fatalf("state changed across the round trip:\n%+v\nvs\n%+v", last, back)
	}
	// No stray temp file from the atomic write.
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestCheckpointFileRejectsMalformed covers the failure modes of
// LoadCheckpoint: plain graph snapshots, checkpoints of a different
// graph, and a section kind no snapshot may carry.
func TestCheckpointFileRejectsMalformed(t *testing.T) {
	g, err := LoadDataset("orkut", 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// A v1 snapshot is a valid graph but not a checkpoint.
	v1 := filepath.Join(dir, "v1.gxsnap")
	if err := ingest.SaveFile(v1, g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(v1); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("v1 snapshot accepted as checkpoint: %v", err)
	}

	// A checkpoint of one graph does not fit another.
	st := &CheckpointState{
		Iteration: 1, AttrWidth: 1,
		Attrs:  make([]float64, g.NumVertices()+1),
		Active: make([]bool, g.NumVertices()+1),
		Nodes:  []NodeClock{{}},
	}
	cross := filepath.Join(dir, "cross.gxsnap")
	if err := SaveCheckpoint(cross, g, st); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(cross); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("cross-graph checkpoint accepted: %v", err)
	}

	// Section kind 2 is unassigned: it cannot be written, and a
	// checkpoint whose first section is relabelled 2 (payload checksum
	// fixed up, so only the kind is wrong) fails to load.
	if err := ingest.SaveV2File(filepath.Join(dir, "kind2.gxsnap"), g, []ingest.Section{
		{Kind: 2, Data: make([]byte, 8)},
	}); err == nil {
		t.Fatal("section kind 2 written")
	}
	fit := &CheckpointState{
		Iteration: 1, AttrWidth: 1,
		Attrs:  make([]float64, g.NumVertices()),
		Active: make([]bool, g.NumVertices()),
		Nodes:  []NodeClock{{}},
	}
	odd := filepath.Join(dir, "odd.gxsnap")
	if err := SaveCheckpoint(odd, g, fit); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(odd)
	if err != nil {
		t.Fatal(err)
	}
	// The section count sits in the last 4 bytes a v1 snapshot would
	// have; the first section's kind follows it. The payload checksum
	// covers everything between the 28-byte header and the footer.
	first := ingest.SnapshotSize(g.NumVertices(), g.NumEdges())
	binary.LittleEndian.PutUint32(data[first:], 2)
	binary.LittleEndian.PutUint32(data[len(data)-4:],
		crc32.Checksum(data[28:len(data)-4], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(odd, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(odd); err == nil || !strings.Contains(err.Error(), "unknown kind 2") {
		t.Fatalf("section kind 2 accepted in checkpoint: %v", err)
	}

	if err := SaveCheckpoint(filepath.Join(dir, "nil.gxsnap"), g, nil); err == nil {
		t.Fatal("nil state accepted")
	}
}

// TestFaultScenarioJSONRoundTrip: the fault plan is scenario vocabulary —
// it survives the JSON round trip and validates like every other field.
func TestFaultScenarioJSONRoundTrip(t *testing.T) {
	s := Scenario{
		Engine: "graphx", Algorithm: "pagerank",
		Dataset: "orkut", Scale: 20000, Nodes: 3, Accel: "cpu",
		Faults: []FaultSpec{
			{Kind: FaultMsgStall, Node: 0, Superstep: 1, Param: 3},
			{Kind: FaultDaemonCrash, Node: 2, Superstep: 4},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind": "msg-stall"`) {
		t.Fatalf("fault plan not serialized:\n%s", data)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the scenario:\n%+v\nvs\n%+v", s, back)
	}
}

// TestFaultValidation: malformed fault plans fail at Validate time with
// errors naming the offending entry.
func TestFaultValidation(t *testing.T) {
	base := Scenario{
		Engine: "graphx", Algorithm: "pagerank",
		Dataset: "orkut", Scale: 20000, Nodes: 3, Accel: "cpu",
	}
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string
	}{
		{"unknown kind", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: "power-cut", Node: 0, Superstep: 0}}
		}, "fault"},
		{"negative node", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: FaultDaemonCrash, Node: -1, Superstep: 0}}
		}, "node"},
		{"node out of range", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: FaultDaemonCrash, Node: 3, Superstep: 0}}
		}, "node"},
		{"negative superstep", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: FaultDaemonCrash, Node: 0, Superstep: -2}}
		}, "superstep"},
		{"native execution", func(s *Scenario) {
			s.Accel = "none"
			s.Faults = []FaultSpec{{Kind: FaultDaemonCrash, Node: 0, Superstep: 0}}
		}, "native"},
	}
	for _, tc := range cases {
		s := base
		tc.mutate(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestFailureClass pins the classification vocabulary on representative
// errors from each layer.
func TestFailureClass(t *testing.T) {
	if got := FailureClass(nil); got != "" {
		t.Fatalf("nil classified %q", got)
	}
	s := Scenario{
		Engine: "graphx", Algorithm: "pagerank",
		Dataset: "orkut", Scale: 20000, Nodes: 2, Accel: "cpu",
		Faults: []FaultSpec{{Kind: FaultAccelOOM, Node: 0, Superstep: 0}},
	}
	if _, err := Run(s); FailureClass(err) != ClassFault {
		t.Fatalf("accel-oom run classified %q (%v)", FailureClass(err), err)
	}
	bad := s
	bad.Faults = []FaultSpec{{Kind: "meteor", Node: 0, Superstep: 0}}
	if _, err := Run(bad); FailureClass(err) != ClassValidation {
		t.Fatalf("invalid scenario classified %q", FailureClass(err))
	}
	// A checkpoint Resume cannot continue from is a rejection, not a
	// failed run: no superstep executes.
	healthy := s
	healthy.Faults = nil
	steps := 0
	count := WithObserver(func(Superstep) { steps++ })
	for name, st := range map[string]*CheckpointState{
		"nil":        nil,
		"mis-shaped": {Iteration: 1, AttrWidth: 1},
	} {
		if _, err := Resume(healthy, st, count); FailureClass(err) != ClassValidation || steps != 0 {
			t.Fatalf("resume from %s checkpoint classified %q after %d supersteps (%v)", name, FailureClass(err), steps, err)
		}
	}
	if got := FailureClass(os.ErrNotExist); got != ClassIO {
		t.Fatalf("fs.ErrNotExist classified %q", got)
	}
	if got := FailureClass(&DigestMismatchError{}); got != ClassIO {
		t.Fatalf("digest mismatch classified %q", got)
	}
	if got := FailureClass(errors.New("boom")); got != ClassRun {
		t.Fatalf("generic error classified %q", got)
	}
}

// TestSuiteFailureClassification: a suite mixing healthy, faulted and
// io-broken entries finishes, classifies each failure, and aggregates
// the fault counters into the healthy entries' totals.
func TestSuiteFailureClassification(t *testing.T) {
	snap := exportSnapshot(t, "orkut", 20000, 42)
	sum, err := fileSHA256(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit so the pin no longer matches the content.
	wrong := flipHex(sum)
	base := Scenario{
		Engine: "graphx", Algorithm: "pagerank",
		Dataset: "orkut", Scale: 20000, Nodes: 2, Accel: "cpu", MaxIter: 4,
	}
	stalled := base
	stalled.Faults = []FaultSpec{{Kind: FaultMsgStall, Node: 1, Superstep: 1, Param: 2}}
	crashed := base
	crashed.Faults = []FaultSpec{{Kind: FaultDaemonCrash, Node: 0, Superstep: 1}}
	broken := base
	broken.Dataset = "file+snapshot:" + snap + "#sha256=" + wrong

	suite := Suite{Entries: []SuiteEntry{
		{Name: "healthy", Scenario: base},
		{Name: "stalled", Scenario: stalled},
		{Name: "crashed", Scenario: crashed},
		{Name: "broken", Scenario: broken},
	}}
	res, err := RunSuite(suite, WithPool(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Failed(); got != 2 {
		t.Fatalf("Failed() = %d, want 2", got)
	}
	byName := map[string]EntryResult{}
	for _, e := range res.Entries {
		byName[e.Name] = e
	}
	if e := byName["healthy"]; e.Err != nil || e.Class != "" || e.Totals.FaultsInjected != 0 {
		t.Fatalf("healthy entry: %+v (err %v)", e.Totals, e.Err)
	}
	if e := byName["stalled"]; e.Err != nil || e.Class != "" ||
		e.Totals.FaultsInjected != 1 || e.Totals.FaultRetries != 2 {
		t.Fatalf("stalled entry not absorbed: totals %+v, err %v", e.Totals, e.Err)
	}
	if e := byName["crashed"]; e.Class != ClassFault {
		t.Fatalf("crashed entry classified %q (err %v)", e.Class, e.Err)
	}
	if e := byName["broken"]; e.Class != ClassIO {
		t.Fatalf("broken entry classified %q (err %v)", e.Class, e.Err)
	}
	// The stall's recovery is charged to virtual time: the stalled entry
	// is strictly slower than the identical healthy one.
	if h, s := byName["healthy"].Result, byName["stalled"].Result; s.Time <= h.Time {
		t.Fatalf("stall recovery free: %v vs %v", s.Time, h.Time)
	} else if !attrsBitEqual(h.Attrs, s.Attrs) {
		t.Fatal("stall recovery changed results")
	}
}

// TestCheckpointObserved: WithCheckpoint surfaces its virtual-time cost
// through the observer stream exactly on due supersteps.
func TestCheckpointObserved(t *testing.T) {
	s := Scenario{
		Engine: "graphx", Algorithm: "pagerank",
		Dataset: "orkut", Scale: 20000, Nodes: 2, Accel: "cpu", MaxIter: 4,
	}
	var steps []Superstep
	saved := 0
	res, err := Run(s,
		WithCheckpoint(2, func(*CheckpointState) error { saved++; return nil }),
		WithObserver(func(st Superstep) { steps = append(steps, st) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Iterations / 2; saved != want {
		t.Fatalf("sink called %d times, want %d", saved, want)
	}
	for i, st := range steps {
		due := (i+1)%2 == 0
		if due != (st.CheckpointTime > 0) {
			t.Fatalf("superstep %d: checkpoint time %v, due %v", i, st.CheckpointTime, due)
		}
	}
	free, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= free.Time {
		t.Fatalf("checkpoint cut free: %v vs %v", res.Time, free.Time)
	}
	if !attrsBitEqual(res.Attrs, free.Attrs) {
		t.Fatal("checkpointing changed results")
	}
}

// TestFileDatasetSHA256Pin covers the pinned-digest dataset form: a
// matching pin loads bit-identically to the unpinned form, a stale pin
// fails loudly everywhere (Run, cache), and malformed pins fail at
// Validate time.
func TestFileDatasetSHA256Pin(t *testing.T) {
	snap := exportSnapshot(t, "orkut", 20000, 42)
	sum, err := fileSHA256(snap)
	if err != nil {
		t.Fatal(err)
	}
	base := Scenario{
		Engine: "graphx", Algorithm: "pagerank",
		Dataset: "file+snapshot:" + snap, Nodes: 2, Accel: "cpu", MaxIter: 4,
	}
	pinned := base
	pinned.Dataset = base.Dataset + "#sha256=" + strings.ToUpper(sum) // case-insensitive
	if err := pinned.Validate(); err != nil {
		t.Fatal(err)
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if !attrsBitEqual(plain.Attrs, got.Attrs) || plain.Time != got.Time {
		t.Fatal("pinned and unpinned runs differ")
	}

	stale := base
	stale.Dataset = base.Dataset + "#sha256=" + flipHex(sum)
	_, err = Run(stale)
	var de *DigestMismatchError
	if !errors.As(err, &de) {
		t.Fatalf("stale pin error %v, want DigestMismatchError", err)
	}
	if !strings.Contains(err.Error(), "does not match") || FailureClass(err) != ClassIO {
		t.Fatalf("stale pin error %q classified %q", err, FailureClass(err))
	}

	// The shared dataset cache verifies pins too, even on a memoized
	// digest entry.
	cache := NewDatasetCache()
	if _, err := cache.Graph(pinned.Dataset, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Graph(stale.Dataset, 0, 0); !errors.As(err, &de) {
		t.Fatalf("cache served a graph past a stale pin: %v", err)
	}
	if _, err := cache.Graph(base.Dataset, 0, 0); err != nil {
		t.Fatalf("unpinned form poisoned: %v", err)
	}

	for suffix, wantErr := range map[string]string{
		"#sha256=abc":                         "64 hex",
		"#sha256=" + strings.Repeat("zz", 32): "64 hex",
		"#md5=" + sum:                         "",
		"#sha256=" + sum + "#sha256=" + sum:   "64 hex",
	} {
		s := base
		s.Dataset = base.Dataset + suffix
		err := s.Validate()
		if wantErr == "" {
			// Unknown fragment schemes are part of the path, which then
			// does not exist.
			if err == nil {
				t.Errorf("%q: expected an error", suffix)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%q: error %v, want substring %q", suffix, err, wantErr)
		}
	}
}

func fileSHA256(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// flipHex returns the digest with its first digit replaced, producing a
// well-formed but wrong pin.
func flipHex(sum string) string {
	r := "0"
	if sum[0] == '0' {
		r = "1"
	}
	return r + sum[1:]
}

// TestFailedPluggedRunReleasesDaemons: a plugged run that fails after its
// agents connected — every fatal fault kind, and a kernel panic —
// disconnects them on the way out. A daemon left behind is a goroutine
// blocked in Msgrcv for the life of the process (and its three segments
// and two queues with it), so after a warm-up round further failing runs
// must leave the goroutine count where it was.
func TestFailedPluggedRunReleasesDaemons(t *testing.T) {
	if err := registerPanickingAlgorithms(); err != nil {
		t.Fatal(err)
	}
	base := Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "orkut", Scale: 20000, Nodes: 4, Accel: "gpu"}
	var failing []Scenario
	for _, f := range []FaultSpec{
		{Kind: FaultAccelOOM, Node: 1, Superstep: 1},
		{Kind: FaultDaemonCrash, Node: 2, Superstep: 1},
		{Kind: FaultMsgStall, Node: 3, Superstep: 0, Param: 1000}, // past the retry budget
	} {
		s := base
		s.Faults = []FaultSpec{f}
		failing = append(failing, s)
	}
	panicking := base
	panicking.Algorithm = "test-apply-panics"
	failing = append(failing, panicking)

	round := func() {
		for _, s := range failing {
			if res, err := Run(s); err == nil {
				t.Fatalf("%s with faults %v ran to completion in %d supersteps", s.Algorithm, s.Faults, res.Iterations)
			}
		}
	}
	round()
	before := settledGoroutines()
	for i := 0; i < 3; i++ {
		round()
	}
	checkGoroutines(t, before, "after 12 failed plugged runs")
}
