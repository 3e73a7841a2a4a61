package gx

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/graph"
	"gxplug/internal/par"
)

// A job runs user code — registered algorithms on the engine's node
// workers and, plugged, as the daemons' device kernels; the suite observer
// on the pool worker — and a panic in it must fail that job alone: one
// failed entry of class run carrying the panic value, the suite's other
// entries finished with the digests they have without it, the process
// alive, and no daemon of the failed job left behind.

// genPanicsAt is CC whose MSGGen panics on edges out of one vertex. It
// keeps CC's SourceOnly declaration, so both executors reach the panic on
// their per-run path.
type genPanicsAt struct {
	Algorithm
	src graph.VertexID
}

func (a genPanicsAt) MSGGen(ctx *Context, src, dst graph.VertexID, w float64, srcAttr, msg []float64) bool {
	if src == a.src {
		panic("synthetic MSGGen panic")
	}
	return a.Algorithm.MSGGen(ctx, src, dst, w, srcAttr, msg)
}

// applyPanicsAt is CC whose MSGApply panics on one vertex.
type applyPanicsAt struct {
	Algorithm
	id graph.VertexID
}

func (a applyPanicsAt) MSGApply(ctx *Context, id graph.VertexID, attr, msg []float64, received bool) bool {
	if id == a.id {
		panic("synthetic MSGApply panic")
	}
	return a.Algorithm.MSGApply(ctx, id, attr, msg, received)
}

// mergePanicsOn is CC whose MSGMerge panics on one vertex's label — the
// message that vertex sends in superstep 0.
type mergePanicsOn struct {
	Algorithm
	label float64
}

func (a mergePanicsOn) MSGMerge(acc, msg []float64) {
	if msg[0] == a.label {
		panic("synthetic MSGMerge panic")
	}
	a.Algorithm.MSGMerge(acc, msg)
}

// settledGoroutines makes the host helper pool spawn every helper it will
// ever have at this GOMAXPROCS — each item waits for all the others to
// have started — and returns the goroutine count, which from then on only
// a leak can raise.
func settledGoroutines() int {
	n := runtime.GOMAXPROCS(0)
	var started sync.WaitGroup
	started.Add(n)
	_ = par.Do(n, func(int) error {
		started.Done()
		started.Wait()
		return nil
	})
	return runtime.NumGoroutine()
}

// checkGoroutines fails the test if more goroutines are alive than before.
// A goroutine that has released its WaitGroup is still counted until it
// has returned, so the count is given a moment to come down.
func checkGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("%s: %d goroutines alive, %d before", what, after, before)
	}
}

// registerPanickingAlgorithms registers, once per process, CC variants
// whose MSGGen, MSGApply and MSGMerge panic at one vertex with out-edges
// that graphx's range cut masters on node 2 of 4: only that node meets
// the panic.
var registerPanickingAlgorithms = sync.OnceValue(func() error {
	g, err := LoadDataset("orkut", 20000, 0)
	if err != nil {
		return err
	}
	part := graph.EdgeCutByRange(g, 4)
	src := -1
	for v := 0; v < g.NumVertices() && src < 0; v++ {
		if part.Owner[v] == 2 && g.OutDegree(graph.VertexID(v)) > 0 {
			src = v
		}
	}
	if src < 0 {
		return errors.New("node 2 masters no vertex with out-edges")
	}
	for name, alg := range map[string]Algorithm{
		"test-gen-panics":   genPanicsAt{Algorithm: algos.NewCC(), src: graph.VertexID(src)},
		"test-apply-panics": applyPanicsAt{Algorithm: algos.NewCC(), id: graph.VertexID(src)},
		"test-merge-panics": mergePanicsOn{Algorithm: algos.NewCC(), label: float64(src)},
	} {
		RegisterAlgorithm(AlgorithmDef{
			Name: name,
			New:  func(AlgoParams, int) (Algorithm, error) { return alg, nil },
		})
	}
	return nil
})

func panicSuite() Suite {
	return Suite{Entries: []SuiteEntry{
		{Name: "ok", Scenario: Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "orkut", Scale: 20000, Nodes: 2}},
		{Name: "boom", Scenario: Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "orkut", Scale: 20000, Nodes: 4}},
		{Name: "ok2", Scenario: Scenario{Engine: "graphx", Algorithm: "cc", Dataset: "orkut", Scale: 20000, Nodes: 2}},
	}}
}

// checkOneFailed holds a panicSuite result to the contract above, given
// a clean run of the same suite.
func checkOneFailed(t *testing.T, res, clean *SuiteResult, wantInErr ...string) {
	t.Helper()
	if res.Failed() != 1 {
		t.Fatalf("%d failed entries, want 1: %v", res.Failed(), res.Err())
	}
	boom := res.Entries[1]
	if boom.Err == nil || boom.Result != nil || boom.Class != ClassRun {
		t.Fatalf("panicking entry: class %q, result %v, err %v", boom.Class, boom.Result, boom.Err)
	}
	for _, want := range append(wantInErr, "goroutine ") {
		if !strings.Contains(boom.Err.Error(), want) {
			t.Errorf("panicking entry's error lacks %q:\n%v", want, boom.Err)
		}
	}
	for _, i := range []int{0, 2} {
		if got, want := res.Entries[i].Summary.AttrsDigest, clean.Entries[i].Summary.AttrsDigest; res.Entries[i].Err != nil || got != want {
			t.Errorf("entry %q: err %v, digest %s, want %s", res.Entries[i].Name, res.Entries[i].Err, got, want)
		}
	}
}

func TestSuitePanickingAlgorithmFailsOneEntry(t *testing.T) {
	clean, err := RunSuite(panicSuite())
	if err != nil || clean.Failed() != 0 {
		t.Fatal(err, clean.Err())
	}
	if err := registerPanickingAlgorithms(); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		before := settledGoroutines()
		for _, cell := range []struct{ algorithm, accel, want string }{
			{"test-gen-panics", "none", "engine: node 2 panicked: synthetic MSGGen panic"},
			// Plugged, the kernels run on the daemons' devices: the panic
			// comes back through the device, the daemon's reply and the
			// agent as node 2's error.
			{"test-gen-panics", "gpu", "device V100: kernel: par: item 0 panicked: synthetic MSGGen panic"},
			{"test-apply-panics", "gpu", "device V100: kernel: par: item 0 panicked: synthetic MSGApply panic"},
			{"test-merge-panics", "gpu", "device V100: kernel: par: item 0 panicked: synthetic MSGMerge panic"},
		} {
			suite := panicSuite()
			suite.Entries[1].Algorithm, suite.Entries[1].Accel = cell.algorithm, cell.accel
			res, err := RunSuite(suite, WithPool(2))
			if err != nil {
				t.Fatal(err)
			}
			checkOneFailed(t, res, clean, cell.want)
			checkGoroutines(t, before, fmt.Sprintf("GOMAXPROCS %d, %s on %s", procs, cell.algorithm, cell.accel))
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestSuitePanickingObserverFailsOneEntry(t *testing.T) {
	clean, err := RunSuite(panicSuite())
	if err != nil || clean.Failed() != 0 {
		t.Fatal(err, clean.Err())
	}
	reports := map[string]int{}
	res, err := RunSuite(panicSuite(), WithPool(2), WithSuiteObserver(func(entry string, st Superstep) {
		reports[entry]++
		if entry == "boom" {
			panic("synthetic observer panic")
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkOneFailed(t, res, clean, `gx: entry "boom" panicked: synthetic observer panic`)
	// The callback lock was released on the way out: the other entries
	// kept reporting.
	if reports["boom"] != 1 || reports["ok"] == 0 || reports["ok2"] == 0 {
		t.Errorf("observer reports per entry: %v", reports)
	}
}

var panickingLoaders atomic.Int64

// A dataset loader that panics fails its entry and memoizes nothing: the
// next suite on the same cache calls the loader again and runs, instead
// of reading the panicked build's empty slot as a nil graph.
func TestPanickingLoaderDoesNotPoisonCache(t *testing.T) {
	name := fmt.Sprintf("test-panics-once-%d", panickingLoaders.Add(1))
	var calls atomic.Int64
	RegisterDataset(DatasetDef{Name: name, Load: func(scale, seed int64) (*Graph, error) {
		if calls.Add(1) == 1 {
			panic("synthetic loader panic")
		}
		return LoadDataset("orkut", scale, seed)
	}})
	suite := Suite{Entries: []SuiteEntry{
		{Name: "load", Scenario: Scenario{Engine: "graphx", Algorithm: "cc", Dataset: name, Scale: 20000, Nodes: 2}},
	}}
	cache := NewDatasetCache()
	res, err := RunSuite(suite, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if er := res.Entries[0]; er.Class != ClassRun || er.Err == nil || !strings.Contains(er.Err.Error(), "panicked: synthetic loader panic") {
		t.Fatalf("first suite: class %q, err %v", er.Class, er.Err)
	}
	if res, err = RunSuite(suite, WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("second suite: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("loader calls=%d, want 2", n)
	}
}
