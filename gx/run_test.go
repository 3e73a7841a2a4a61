package gx

import (
	"strings"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
)

// TestRunMatchesHandBuiltConfig checks that the declarative path produces
// results bit-identical to hand-building the engine configuration the way
// pre-gx callers did.
func TestRunMatchesHandBuiltConfig(t *testing.T) {
	s := Scenario{
		Engine:    "powergraph",
		Algorithm: "pagerank",
		Dataset:   "orkut",
		Scale:     20000,
		Seed:      1,
		Nodes:     3,
		Accel:     "none",
	}
	got, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}

	g, err := gen.Load(gen.Orkut, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := powergraph.Run(engine.Config{Nodes: 3, Graph: g, Alg: algos.NewPageRank()})
	if err != nil {
		t.Fatal(err)
	}

	if got.Iterations != want.Iterations || got.Time != want.Time {
		t.Fatalf("run shape differs: gx %d iters %v, hand-built %d iters %v",
			got.Iterations, got.Time, want.Iterations, want.Time)
	}
	if len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("attr length %d vs %d", len(got.Attrs), len(want.Attrs))
	}
	for i := range got.Attrs {
		if got.Attrs[i] != want.Attrs[i] {
			t.Fatalf("attrs differ at %d: %v vs %v", i, got.Attrs[i], want.Attrs[i])
		}
	}
}

// TestObserverStreamsSupersteps exercises the per-superstep hook: one
// report per iteration, a full initial frontier for an all-active
// algorithm, cross-node traffic visible, monotone virtual time.
func TestObserverStreamsSupersteps(t *testing.T) {
	var steps []Superstep
	s := Scenario{
		Engine:    "graphx",
		Algorithm: "pagerank",
		Dataset:   "orkut",
		Scale:     20000,
		Nodes:     3,
		MaxIter:   8,
	}
	res, err := Run(s, WithObserver(func(st Superstep) { steps = append(steps, st) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != res.Iterations {
		t.Fatalf("%d reports for %d iterations", len(steps), res.Iterations)
	}
	g, err := LoadDataset("orkut", 20000, 0) // seed 0: what the scenario above runs
	if err != nil {
		t.Fatal(err)
	}
	if steps[0].Frontier != g.NumVertices() {
		t.Errorf("initial PageRank frontier %d, want all %d vertices", steps[0].Frontier, g.NumVertices())
	}
	var msgs int64
	prev := Superstep{}
	for i, st := range steps {
		if st.Iteration != i {
			t.Errorf("report %d has iteration %d", i, st.Iteration)
		}
		if st.Makespan < prev.Makespan || st.UpperTime < prev.UpperTime {
			t.Errorf("virtual time went backwards at superstep %d", i)
		}
		msgs += st.Messages
		prev = st
	}
	if msgs == 0 {
		t.Error("no cross-node messages observed over the whole run")
	}
	if last := steps[len(steps)-1]; res.Iterations < 8 && last.Changed {
		t.Error("run ended early but last superstep reports Changed")
	}
}

// TestObserverSeesSkipDecisions runs a frontier-driven workload on a
// clustered road network, where synchronization skipping fires, and
// checks the observer's per-superstep skip flags sum to the result's
// counter.
func TestObserverSeesSkipDecisions(t *testing.T) {
	skips := 0
	s := Scenario{
		Engine:    "powergraph",
		Algorithm: "sssp",
		Dataset:   "wrn",
		Scale:     20000,
		Nodes:     2,
		Accel:     "cpu",
	}
	res, err := Run(s, WithObserver(func(st Superstep) {
		if st.SkippedSync {
			skips++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if skips != res.SkippedSyncs {
		t.Fatalf("observer saw %d skips, result counted %d", skips, res.SkippedSyncs)
	}
	if res.SkippedSyncs == 0 {
		t.Error("expected synchronization skipping to fire on the clustered road network")
	}
}

// TestObserverDoesNotChangeResults: attaching an observer must not
// perturb the simulation — same attrs, same virtual time.
func TestObserverDoesNotChangeResults(t *testing.T) {
	s := Scenario{
		Engine:    "powergraph",
		Algorithm: "cc",
		Dataset:   "orkut",
		Scale:     20000,
		Nodes:     3,
		Accel:     "cpu",
	}
	bare, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(s, WithObserver(func(Superstep) {}))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Time != observed.Time || bare.Iterations != observed.Iterations {
		t.Fatalf("observer changed the run: %v/%d vs %v/%d",
			bare.Time, bare.Iterations, observed.Time, observed.Iterations)
	}
	for i := range bare.Attrs {
		if bare.Attrs[i] != observed.Attrs[i] {
			t.Fatalf("observer changed attrs at %d", i)
		}
	}
}

// TestRunWithOptionsOverrides exercises WithGraph / WithPlug: scenario
// fields they replace are not consulted.
func TestRunWithOptionsOverrides(t *testing.T) {
	g, err := LoadDataset("wiki-topcats", 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Dataset/Accel fields left empty or invalid on purpose: the options
	// supply them.
	s := Scenario{Engine: "graphx", Algorithm: "pagerank", Nodes: 2, MaxIter: 3}
	res, err := Run(s,
		WithGraph(g),
		WithPlug(CPUPlug()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("maxiter 3 ran %d iterations", res.Iterations)
	}
	if res.AgentStats == nil {
		t.Fatal("WithPlug did not plug the middleware in")
	}
}

// TestCacheCapacityScenario runs the same scenario bounded and
// unbounded: the bound must drive real evictions and dirty spills yet
// leave results bit-identical — capacity is a cost dimension, not a
// semantic one.
func TestCacheCapacityScenario(t *testing.T) {
	s := Scenario{
		Engine:    "powergraph",
		Algorithm: "pagerank",
		Dataset:   "orkut",
		Scale:     20000,
		Nodes:     2,
		Accel:     "cpu",
		MaxIter:   6,
	}
	unbounded, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}

	g, err := LoadDataset(s.Dataset, s.Scale, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	s.CacheCapacity = g.NumVertices() / 8 / s.Nodes // ~1/8 of a node's table
	if err := s.Validate(); err != nil {
		t.Fatalf("bounded scenario rejected: %v", err)
	}
	bounded, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}

	var evictions, spills int64
	for _, as := range bounded.AgentStats {
		evictions += as.CacheEvictions
		spills += as.DirtySpills
	}
	if evictions == 0 || spills == 0 {
		t.Fatalf("cache_capacity %d drove no evictions (%d) or spills (%d)",
			s.CacheCapacity, evictions, spills)
	}
	if bounded.Iterations != unbounded.Iterations {
		t.Fatalf("bound changed iterations: %d vs %d", bounded.Iterations, unbounded.Iterations)
	}
	for i := range bounded.Attrs {
		if bounded.Attrs[i] != unbounded.Attrs[i] {
			t.Fatalf("bounded cache changed attrs at %d: %v vs %v",
				i, bounded.Attrs[i], unbounded.Attrs[i])
		}
	}
}

// TestRunUnknownNamesError: Run surfaces registry errors listing the
// registered names.
func TestRunUnknownNamesError(t *testing.T) {
	s := valid()
	s.Engine = "giraph"
	_, err := Run(s)
	if err == nil || !strings.Contains(err.Error(), "powergraph") {
		t.Fatalf("want registry listing in error, got %v", err)
	}
}

// TestCustomRegistration registers a user algorithm and runs it by name
// through a scenario — the extension path examples/custom-algorithm uses.
func TestCustomRegistration(t *testing.T) {
	RegisterAlgorithm(AlgorithmDef{
		Name: "test-cc-alias",
		New: func(AlgoParams, int) (Algorithm, error) {
			return algos.NewCC(), nil
		},
	})
	s := Scenario{
		Engine:    "powergraph",
		Algorithm: "test-cc-alias",
		Dataset:   "orkut",
		Scale:     20000,
		Nodes:     2,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("registered algorithm does not validate: %v", err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations ran")
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterAlgorithm(AlgorithmDef{
		Name: "test-cc-alias",
		New:  func(AlgoParams, int) (Algorithm, error) { return algos.NewCC(), nil },
	})
}
