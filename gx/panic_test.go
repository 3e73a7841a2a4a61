package gx

import (
	"runtime"
	"strings"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/graph"
)

// A job runs user code — registered algorithms on the engine's node
// workers, the suite observer on the pool worker — and a panic in it
// must fail that job alone: one failed entry of class run carrying the
// panic value, the suite's other entries finished with the digests they
// have without it, the process alive.

// genPanicsAt is CC whose MSGGen panics on edges out of one vertex.
type genPanicsAt struct {
	Algorithm
	src graph.VertexID
}

func (a genPanicsAt) MSGGen(ctx *Context, src, dst graph.VertexID, w float64, srcAttr []float64, emit Emit) {
	if src == a.src {
		panic("synthetic MSGGen panic")
	}
	a.Algorithm.MSGGen(ctx, src, dst, w, srcAttr, emit)
}

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
	// A vertex with out-edges that graphx's range cut masters on node 2 of
	// 4: only that node's gen worker meets the panic.
	g, err := LoadDataset("orkut", 20000, 0)
	if err != nil {
		t.Fatal(err)
	}
	part := graph.EdgeCutByRange(g, 4)
	src := -1
	for v := 0; v < g.NumVertices() && src < 0; v++ {
		if part.Owner[v] == 2 && g.OutDegree(graph.VertexID(v)) > 0 {
			src = v
		}
	}
	if src < 0 {
		t.Fatal("node 2 masters no vertex with out-edges")
	}
	RegisterAlgorithm(AlgorithmDef{
		Name: "test-gen-panics",
		New: func(AlgoParams, int) (Algorithm, error) {
			return genPanicsAt{Algorithm: algos.NewCC(), src: graph.VertexID(src)}, nil
		},
	})
	suite := panicSuite()
	suite.Entries[1].Algorithm = "test-gen-panics"
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := RunSuite(suite, WithPool(2))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		checkOneFailed(t, res, clean, "engine: node 2 panicked: synthetic MSGGen panic")
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
