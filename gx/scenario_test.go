package gx

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gxplug/internal/engine"
)

// valid returns a scenario that passes validation; tests mutate one field
// at a time.
func valid() Scenario {
	return Scenario{
		Engine:    "powergraph",
		Algorithm: "pagerank",
		Dataset:   "orkut",
		Nodes:     4,
		Accel:     "gpu",
	}
}

func TestValidateAcceptsValidScenario(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want []string // substrings the error must contain
	}{
		{"zero nodes", func(s *Scenario) { s.Nodes = 0 },
			[]string{"nodes 0"}},
		{"negative nodes", func(s *Scenario) { s.Nodes = -2 },
			[]string{"nodes -2"}},
		{"negative scale", func(s *Scenario) { s.Scale = -5 },
			[]string{"scale -5"}},
		{"negative maxiter", func(s *Scenario) { s.MaxIter = -1 },
			[]string{"maxiter -1"}},
		{"unknown engine", func(s *Scenario) { s.Engine = "sparkx" },
			[]string{`unknown engine "sparkx"`, "graphx", "powergraph"}},
		{"unknown algorithm", func(s *Scenario) { s.Algorithm = "triangle" },
			[]string{`unknown algorithm "triangle"`, "pagerank", "sssp"}},
		{"unknown dataset", func(s *Scenario) { s.Dataset = "friendster" },
			[]string{`unknown dataset "friendster"`, "orkut", "wrn"}},
		{"unknown accelerator", func(s *Scenario) { s.Accel = "tpu" },
			[]string{`unknown accelerator "tpu"`, "cpu", "gpu", "none"}},
		{"unknown network", func(s *Scenario) { s.Network = "infiniband9000" },
			[]string{`unknown network "infiniband9000"`, "datacenter"}},
		{"negative gpus", func(s *Scenario) { s.GPUs = -1 },
			[]string{"gpus -1"}},
		{"mix length", func(s *Scenario) { s.Mix = []string{"gpu", "cpu"} },
			[]string{"mix has 2 entries for 4 nodes"}},
		{"mix unknown entry", func(s *Scenario) { s.Mix = []string{"gpu", "cpu", "gpu", "asic"} },
			[]string{`unknown accelerator "asic"`}},
		{"mix native and plugged", func(s *Scenario) { s.Mix = []string{"gpu", "none", "gpu", "gpu"} },
			[]string{"native and plugged"}},
		{"bad kcore k", func(s *Scenario) { s.Algorithm = "kcore"; s.Params.K = -1 },
			[]string{`algorithm "kcore"`, "k -1"}},
		{"bad bfs hop bound", func(s *Scenario) { s.Algorithm = "bfs"; s.Params.K = -3 },
			[]string{"hop bound -3"}},
		{"negative source", func(s *Scenario) { s.Algorithm = "sssp"; s.Params.Sources = []int64{0, -7} },
			[]string{"source -7"}},
		{"absurd gpu count", func(s *Scenario) { s.GPUs = 20000000 },
			[]string{"gpus 20000000 (want 1..64)"}},
		{"absurd node count", func(s *Scenario) { s.Nodes = 40000 },
			[]string{"nodes 40000 (want 1..1024)"}},
		{"negative cache capacity", func(s *Scenario) { s.CacheCapacity = -3 },
			[]string{"cache_capacity -3"}},
		{"cache capacity without accelerator", func(s *Scenario) { s.Accel = "none"; s.CacheCapacity = 64 },
			[]string{"cache_capacity 64", "accelerator"}},
		{"cache capacity with caching off", func(s *Scenario) { s.Opt = NoOptimizations(); s.CacheCapacity = 64 },
			[]string{"cache_capacity 64", "caching disabled"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("scenario %+v validated", s)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// The node count sizes m×m state before the first superstep, so it is
// bounded like gpus: Validate, Run and a suite all reject it with one
// text, as a validation failure, before any graph is loaded (gxd's
// submit path is pinned in internal/serve's TestServeRejections).
func TestNodesBoundEveryEntryPoint(t *testing.T) {
	s := valid()
	s.Nodes = 40000
	const want = "scenario: nodes 40000 (want 1..1024)"

	if err := s.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate: %v, want %q", err, want)
	}
	steps := 0
	_, err := Run(s, WithObserver(func(Superstep) { steps++ }))
	if FailureClass(err) != ClassValidation || err.Error() != want || steps != 0 {
		t.Errorf("Run: class %q after %d supersteps, error %q; want validation %q", FailureClass(err), steps, err, want)
	}
	cache := NewDatasetCache()
	_, err = RunSuite(Suite{Entries: []SuiteEntry{{Name: "wide", Scenario: s}}}, WithCache(cache))
	if err == nil || err.Error() != `suite entry "wide": `+want {
		t.Errorf("RunSuite: %v, want the entry named with %q", err, want)
	}
	if st := cache.Stats(); st.GraphLoads != 0 || st.PartitionBuilds != 0 {
		t.Errorf("the rejected suite loaded %d graphs and built %d partitionings", st.GraphLoads, st.PartitionBuilds)
	}
	s.Nodes = 1024
	if err := s.Validate(); err != nil {
		t.Errorf("nodes at the bound rejected: %v", err)
	}
}

func TestValidateJoinsMultipleErrors(t *testing.T) {
	s := Scenario{Engine: "sparkx", Algorithm: "triangle", Dataset: "orkut", Nodes: 0}
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid scenario validated")
	}
	for _, want := range []string{"nodes 0", "sparkx", "triangle"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	scenarios := []Scenario{
		valid(),
		{}, // zero value
		{
			Engine:        "graphx",
			Algorithm:     "sssp",
			Params:        AlgoParams{K: 5, Sources: []int64{0, 9, 42}},
			Dataset:       "wrn",
			Scale:         500,
			Seed:          7,
			Nodes:         6,
			Accel:         "gpu",
			GPUs:          2,
			MaxIter:       12,
			CacheCapacity: 128,
			Network:       "hpc",
			Opt:           &Toggles{Pipeline: true, Skipping: true},
		},
		{
			Engine:    "powergraph",
			Algorithm: "kcore",
			Params:    AlgoParams{K: 4},
			Dataset:   "livejournal",
			Nodes:     3,
			Mix:       []string{"gpu", "cpu", "gpu"},
			Opt:       NoOptimizations(),
		},
	}
	for i, s := range scenarios {
		data, err := s.JSON()
		if err != nil {
			t.Fatalf("scenario %d: marshal: %v", i, err)
		}
		back, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("scenario %d: parse: %v\n%s", i, err, data)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("scenario %d: round trip changed it:\nbefore %+v\nafter  %+v\njson %s", i, s, back, data)
		}
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	_, err := ParseScenario([]byte(`{"engine": "powergraph", "algorthm": "pagerank"}`))
	if err == nil || !strings.Contains(err.Error(), "algorthm") {
		t.Fatalf("typo field accepted: %v", err)
	}
}

func TestWithDefaults(t *testing.T) {
	s := Scenario{Engine: "powergraph", Algorithm: "cc", Dataset: "orkut", Nodes: 2}.WithDefaults()
	if s.Scale != DefaultScale || s.Accel != DefaultAccel ||
		s.Network != DefaultNetwork || s.GPUs != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	// Seed 0 is a valid seed and must be honored as written.
	if s.Seed != 0 {
		t.Fatalf("seed 0 rewritten to %d", s.Seed)
	}
	// Explicit values survive.
	s2 := Scenario{Scale: 77, Seed: 5, Accel: "cpu", Network: "hpc", GPUs: 3}.WithDefaults()
	if s2.Scale != 77 || s2.Seed != 5 || s2.Accel != "cpu" || s2.Network != "hpc" || s2.GPUs != 3 {
		t.Fatalf("explicit values clobbered: %+v", s2)
	}
}

func TestRegistriesListBuiltins(t *testing.T) {
	checks := []struct {
		kind  string
		names []string
		want  []string
	}{
		{"engines", Engines(), []string{"graphx", "powergraph"}},
		{"algorithms", Algorithms(), []string{"bfs", "cc", "kcore", "lp", "pagerank", "sssp"}},
		{"datasets", Datasets(), []string{"livejournal", "orkut", "syn4m", "twitter", "uk-2007-02", "wiki-topcats", "wrn"}},
		{"accelerators", Accelerators(), []string{"cpu", "gpu", "none"}},
		{"networks", Networks(), []string{"commodity-1g", "datacenter", "hpc"}},
	}
	for _, c := range checks {
		got := strings.Join(c.names, ",")
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("%s missing %q: %v", c.kind, w, c.names)
			}
		}
	}
}

// TestCombinationRulesMatchEngine: the rules on combining middleware, a
// fault plan and a batch stream are the engine's, stated once.
// Scenario.Validate rejects a shape exactly when engine.Run rejects the
// Config the scenario builds, and both errors carry the engine rule.
func TestCombinationRulesMatchEngine(t *testing.T) {
	const (
		faultsNative = "engine: fault plan requires plugged middleware (native execution has no middleware to fault)"
		pluggedBatch = "engine: a batch stream requires native execution"
		faultsBatch  = "engine: a batch stream cannot be combined with fault injection"
	)
	cases := []struct {
		accel          string
		faults, stream bool
		want           []string // every broken rule, in resolve's order
	}{
		{"none", false, false, nil},
		{"cpu", false, false, nil},
		{"none", true, false, []string{faultsNative}},
		{"cpu", true, false, nil},
		{"none", false, true, nil},
		{"cpu", false, true, []string{pluggedBatch}},
		{"none", true, true, []string{faultsBatch}},
		{"cpu", true, true, []string{faultsBatch, pluggedBatch}},
	}
	for _, tc := range cases {
		s := dynamicScenario("graphx", "pagerank", "scratch")
		s.Scale, s.MaxIter, s.Accel = 16000, 2, tc.accel
		if !tc.stream {
			s.Batches = nil
		}
		if tc.faults {
			s.Faults = []FaultSpec{{Kind: FaultMsgStall, Node: 0, Superstep: 1}}
		}
		name := fmt.Sprintf("accel %s, faults %v, stream %v", tc.accel, tc.faults, tc.stream)
		cfg, err := buildConfig(s.WithDefaults(), NewDatasetCache(), &runConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, runErr := engine.Run(cfg)
		valErr := s.Validate()
		if (valErr != nil) != (len(tc.want) > 0) || (runErr != nil) != (len(tc.want) > 0) {
			t.Errorf("%s: Validate %v, engine.Run %v, want rules %q", name, valErr, runErr, tc.want)
			continue
		}
		if len(tc.want) == 0 {
			continue
		}
		if runErr.Error() != tc.want[0] {
			t.Errorf("%s: engine.Run %q, want %q", name, runErr, tc.want[0])
		}
		for _, rule := range tc.want {
			if !strings.Contains(valErr.Error(), rule) {
				t.Errorf("%s: Validate %q does not carry %q", name, valErr, rule)
			}
		}
	}
}
