package engine_test

import (
	"errors"
	"strings"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/graph"
)

// TestConfigResolvedOnce: a Config is resolved by one function, so Run,
// Resume and EstimateCost reject the same configs with the same error
// text and accept the same configs. Every row mutates a valid plugged
// two-node config.
func TestConfigResolvedOnce(t *testing.T) {
	g := testGraph(t)
	sink := func(*engine.CheckpointState) error { return nil }
	base := func() engine.Config {
		return engine.Config{
			Spec: graphx.Spec(), Nodes: 2, Graph: g, Alg: algos.NewPageRank(), MaxIter: 3, Plug: cpuPlug(),
		}
	}
	native := func(c *engine.Config) { c.Plug = nil }
	stream := func(c *engine.Config) {
		c.Plug = nil
		c.Stream = &engine.BatchStream{Batches: []graph.EdgeBatch{
			{Time: 1, Adds: []graph.Edge{{Src: 0, Dst: 5, Weight: 1}}},
		}}
	}
	scratch := func(c *engine.Config) {
		stream(c)
		c.Stream.Scratch = true
	}
	sssp := func(c *engine.Config) { c.Alg = algos.NewSSSPBF(algos.DefaultSources(g.NumVertices())) }
	stall := []engine.Fault{{Kind: engine.FaultMsgStall}}

	invalid := []struct {
		name, want string
		mut        func(*engine.Config)
	}{
		{"zero nodes", "0 nodes", func(c *engine.Config) { c.Nodes = 0 }},
		{"nil graph", "nil graph or algorithm", func(c *engine.Config) { c.Graph = nil }},
		{"nil algorithm", "nil graph or algorithm", func(c *engine.Config) { c.Alg = nil }},
		{"plug count", "2 plug configs for 3 nodes", func(c *engine.Config) {
			c.Nodes = 3
			c.Plug = append(cpuPlug(), gpuPlug()...)
		}},
		{"partitioning nodes", "partitioning has 3 nodes", func(c *engine.Config) {
			c.Partitioning = c.Spec.Partition(g, 3)
		}},
		{"negative cache capacity", "plug 0 cache capacity -1", func(c *engine.Config) { c.Plug[0].CacheCapacity = -1 }},
		{"faults without plug", "requires plugged middleware", func(c *engine.Config) {
			c.Plug = nil
			c.Faults = stall
		}},
		{"unknown fault kind", "unknown kind", func(c *engine.Config) {
			c.Faults = []engine.Fault{{Kind: "meteor-strike"}}
		}},
		{"fault node out of range", "node 2 of 2", func(c *engine.Config) {
			c.Faults = []engine.Fault{{Kind: engine.FaultMsgStall, Node: 2}}
		}},
		{"fault negative superstep", "superstep -1", func(c *engine.Config) {
			c.Faults = []engine.Fault{{Kind: engine.FaultMsgStall, Superstep: -1}}
		}},
		{"every without sink", "must be set together", func(c *engine.Config) { c.CheckpointEvery = 1 }},
		{"sink without every", "must be set together", func(c *engine.Config) { c.CheckpointSink = sink }},
		{"negative every", "checkpoint every -1", func(c *engine.Config) {
			c.CheckpointEvery, c.CheckpointSink = -1, sink
		}},
		{"plugged stream", "batch stream requires native execution", func(c *engine.Config) {
			stream(c)
			c.Plug = cpuPlug()
		}},
		{"stream with faults", "batch stream cannot be combined with fault injection", func(c *engine.Config) {
			stream(c)
			c.Faults = stall
		}},
		{"plugged stream with faults", "batch stream cannot be combined with fault injection", func(c *engine.Config) {
			stream(c)
			c.Plug, c.Faults = cpuPlug(), stall
		}},
		{"stream with checkpoint", "batch stream cannot be combined with checkpointing", func(c *engine.Config) {
			scratch(c)
			c.CheckpointEvery, c.CheckpointSink = 1, sink
		}},
		{"incremental stream over non-incremental algorithm", `does not support incremental recomputation; run its batch stream with "mode": "scratch"`, func(c *engine.Config) {
			stream(c)
			sssp(c)
		}},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, runErr := engine.Run(cfg)
			_, resErr := engine.Resume(cfg, &engine.CheckpointState{Iteration: 1})
			_, estErr := engine.EstimateCost(cfg)
			if runErr == nil || resErr == nil || estErr == nil {
				t.Fatalf("accepted: run %v, resume %v, estimate %v", runErr, resErr, estErr)
			}
			if !strings.Contains(runErr.Error(), tc.want) {
				t.Errorf("run error %q does not mention %q", runErr, tc.want)
			}
			if resErr.Error() != runErr.Error() || estErr.Error() != runErr.Error() {
				t.Errorf("entry points disagree:\n run      %v\n resume   %v\n estimate %v", runErr, resErr, estErr)
			}
			for _, err := range []error{runErr, resErr, estErr} {
				var ce *engine.ConfigError
				if !errors.As(err, &ce) {
					t.Errorf("rejection %q is not a *ConfigError", err)
				}
			}
		})
	}

	valid := []struct {
		name string
		mut  func(*engine.Config)
	}{
		{"one plug for all nodes", func(*engine.Config) {}},
		{"native", native},
		{"per-node plugs", func(c *engine.Config) { c.Plug = append(cpuPlug(), gpuPlug()...) }},
		{"absorbed fault plan", func(c *engine.Config) {
			c.Faults = []engine.Fault{{Kind: engine.FaultMsgStall, Node: 1, Superstep: 1, Param: 1}}
		}},
		{"checkpoint with bounded cache", func(c *engine.Config) {
			c.CheckpointEvery, c.CheckpointSink = 1, sink
			c.Plug[0].CacheCapacity = 8
		}},
	}
	for _, tc := range valid {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if _, err := engine.Run(cfg); err != nil {
				t.Errorf("run: %v", err)
			}
			if _, err := engine.EstimateCost(cfg); err != nil {
				t.Errorf("estimate: %v", err)
			}
			var st *engine.CheckpointState
			ccfg := cfg
			ccfg.CheckpointEvery = 1
			ccfg.CheckpointSink = func(s *engine.CheckpointState) error {
				if st == nil {
					st = s
				}
				return nil
			}
			if _, err := engine.Run(ccfg); err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			if _, err := engine.Resume(cfg, st); err != nil {
				t.Errorf("resume: %v", err)
			}
		})
	}

	// A checkpoint the config cannot continue from is rejected the same
	// way — a *ConfigError before any superstep — so callers class it as
	// a validation failure, not a failed run.
	var good *engine.CheckpointState
	ccfg := base()
	ccfg.CheckpointEvery = 1
	ccfg.CheckpointSink = func(s *engine.CheckpointState) error {
		if good == nil {
			good = s
		}
		return nil
	}
	if _, err := engine.Run(ccfg); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	checkpoints := []struct {
		name, want string
		mut        func(*engine.CheckpointState) *engine.CheckpointState
	}{
		{"nil checkpoint", "nil checkpoint", func(*engine.CheckpointState) *engine.CheckpointState { return nil }},
		{"no completed superstep", "0 completed supersteps", func(s *engine.CheckpointState) *engine.CheckpointState { s.Iteration = 0; return s }},
		{"attr width", "attr width 3", func(s *engine.CheckpointState) *engine.CheckpointState { s.AttrWidth = 3; return s }},
		{"attrs length", "attrs, graph wants", func(s *engine.CheckpointState) *engine.CheckpointState { s.Attrs = s.Attrs[1:]; return s }},
		{"active length", "active flags", func(s *engine.CheckpointState) *engine.CheckpointState { s.Active = s.Active[1:]; return s }},
		{"node clocks", "1 node clocks, config 2 nodes", func(s *engine.CheckpointState) *engine.CheckpointState { s.Nodes = s.Nodes[:1]; return s }},
	}
	for _, tc := range checkpoints {
		t.Run("resume/"+tc.name, func(t *testing.T) {
			cfg := base()
			steps := 0
			cfg.Observer = func(engine.SuperstepInfo) { steps++ }
			st := *good
			_, err := engine.Resume(cfg, tc.mut(&st))
			var ce *engine.ConfigError
			if !errors.As(err, &ce) || !strings.Contains(err.Error(), tc.want) || steps != 0 {
				t.Errorf("resume: %v after %d supersteps, want a ConfigError mentioning %q before any", err, steps, tc.want)
			}
		})
	}

	// A stream config Run accepts is priced by EstimateCost and always
	// rejected by Resume: no stream run can have taken a checkpoint.
	streams := []struct {
		name string
		mut  func(*engine.Config)
	}{
		{"incremental stream", stream},
		{"scratch stream", scratch},
		{"scratch stream over non-incremental algorithm", func(c *engine.Config) { scratch(c); sssp(c) }},
		{"empty stream", func(c *engine.Config) { stream(c); c.Stream.Batches = nil }},
	}
	for _, tc := range streams {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			steps := 0
			cfg.Observer = func(engine.SuperstepInfo) { steps++ }
			res, err := engine.Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if want := len(cfg.Stream.Batches) + 1; len(res.Batches) != want {
				t.Errorf("run reported %d boundaries, want %d", len(res.Batches), want)
			}
			static := cfg
			static.Stream = nil
			seed, err := engine.EstimateCost(static)
			if err != nil {
				t.Fatal(err)
			}
			est, err := engine.EstimateCost(cfg)
			if err != nil {
				t.Fatalf("estimate: %v", err)
			}
			if want := seed.Supersteps * len(res.Batches); est.Supersteps != want {
				t.Errorf("estimate prices %d supersteps, want %d (seed × boundaries)", est.Supersteps, want)
			}
			steps = 0
			_, err = engine.Resume(cfg, &engine.CheckpointState{Iteration: 1})
			var ce *engine.ConfigError
			if !errors.As(err, &ce) || !strings.Contains(err.Error(), "cannot resume") || steps != 0 {
				t.Errorf("resume: %v after %d supersteps, want a ConfigError before any", err, steps)
			}
		})
	}
}
