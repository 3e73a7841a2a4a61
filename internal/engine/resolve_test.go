package engine_test

import (
	"strings"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
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
	incremental := func(c *engine.Config) {
		c.Plug = nil
		c.Incremental = &engine.IncrementalRun{Dirty: make([]bool, g.NumVertices())}
	}
	trace := func(tr engine.Trace) func(*engine.Config) {
		return func(c *engine.Config) {
			incremental(c)
			c.Incremental.Trace = &tr
		}
	}
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
		{"negative cache capacity", "cache capacity -1", func(c *engine.Config) { c.CacheCapacity = -1 }},
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
		{"checkpoint with bounded cache", "bounded cache (CacheCapacity 8)", func(c *engine.Config) {
			c.CheckpointEvery, c.CheckpointSink, c.CacheCapacity = 1, sink, 8
		}},
		{"checkpoint with bounded plug cache", "bounded cache (plug 0", func(c *engine.Config) {
			c.CheckpointEvery, c.CheckpointSink = 1, sink
			c.Plug[0].CacheCapacity = 8
		}},
		{"plugged trace recording", "trace recording is native-only", func(c *engine.Config) { c.RecordTrace = true }},
		{"plugged incremental", "incremental runs are native-only", func(c *engine.Config) {
			incremental(c)
			c.Plug = cpuPlug()
		}},
		{"incremental with checkpoint", "incompatible with checkpointing", func(c *engine.Config) {
			incremental(c)
			c.CheckpointEvery, c.CheckpointSink = 1, sink
		}},
		{"incremental non-inc algorithm", "does not support incremental", func(c *engine.Config) {
			incremental(c)
			c.Alg = algos.NewSSSPBF(algos.DefaultSources(g.NumVertices()))
		}},
		{"dirty seed length", "dirty seed over 1 vertices", func(c *engine.Config) {
			incremental(c)
			c.Incremental.Dirty = make([]bool, 1)
		}},
		{"trace attr width", "trace attr width 7", trace(engine.Trace{AttrWidth: 7, NumV: g.NumVertices()})},
		{"trace vertex count", "trace over 99 vertices", trace(engine.Trace{AttrWidth: 1, NumV: 99})},
		{"trace shape", "header says 2", trace(engine.Trace{
			AttrWidth: 1, NumV: g.NumVertices(), Iters: 2, Attrs: make([][]float64, 1), Changed: make([][]bool, 1),
		})},
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
		{"native trace recording", func(c *engine.Config) { native(c); c.RecordTrace = true }},
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
}
