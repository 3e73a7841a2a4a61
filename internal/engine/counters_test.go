package engine_test

import (
	"fmt"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/gxplug"
)

// A counter counts superstep work and nothing else, so a run's
// per-superstep reports and its Result.AgentStats are two views of one
// set of counts. TestReportsSumToAgentStats checks that on every engine ×
// cache × fault cell, for a straight run, a checkpointing one and a
// resume from each of its cuts: the summed reports equal the summed
// AgentStats for every counter both carry, and each agent's Iterations
// is the gen rounds the reports imply. The bounded cells catch setup
// work leaking into AgentStats (Connect's initial download evicts), the
// GAS resumes a replayed scatter doing the same.
func TestReportsSumToAgentStats(t *testing.T) {
	g := testGraph(t)
	cells := []struct {
		name     string
		capacity int
		faults   []engine.Fault
	}{
		{"unbounded", 0, nil},
		{"bounded", g.NumVertices() / 8 / 3, nil},
		{"msg-stall", 0, []engine.Fault{{Kind: engine.FaultMsgStall, Node: 1, Superstep: 1, Param: 3}}},
	}
	for _, spec := range bothSpecs() {
		for _, c := range cells {
			t.Run(spec.Name+"/"+c.name, func(t *testing.T) {
				base := engine.Config{
					Spec: spec, Nodes: 3, Graph: g, Plug: cpuPlug(), Faults: c.faults,
					Alg: algos.NewSSSPBF(algos.DefaultSources(g.NumVertices())),
				}
				base.Plug[0].CacheCapacity = c.capacity

				straight := checkReportsSum(t, "straight", base, engine.Run)
				switch {
				case c.capacity > 0 && straight.DirtySpills == 0:
					t.Fatal("bounded cache spilled nothing; the cell exercises nothing")
				case c.faults != nil && straight.StallRetries == 0:
					t.Fatal("stall plan drove no retries; the cell exercises nothing")
				}

				var cuts []*engine.CheckpointState
				ckpt := base
				ckpt.CheckpointEvery = 1
				ckpt.CheckpointSink = func(st *engine.CheckpointState) error {
					cuts = append(cuts, st)
					return nil
				}
				checkReportsSum(t, "checkpointing", ckpt, engine.Run)
				if len(cuts) == 0 {
					t.Fatal("no checkpoint taken")
				}
				ckpt.CheckpointSink = func(*engine.CheckpointState) error { return nil }
				for _, st := range cuts {
					checkReportsSum(t, fmt.Sprintf("resume@%d", st.Iteration), ckpt,
						func(cfg engine.Config) (*engine.Result, error) { return engine.Resume(cfg, st) })
				}
			})
		}
	}
}

// checkReportsSum runs cfg under an observer and fails unless the
// reports sum to the run's AgentStats, which it returns summed.
func checkReportsSum(t *testing.T, name string, cfg engine.Config,
	run func(engine.Config) (*engine.Result, error)) gxplug.Stats {
	t.Helper()
	var steps []engine.SuperstepInfo
	cfg.Observer = func(si engine.SuperstepInfo) { steps = append(steps, si) }
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// Iterations counts gen rounds: one per BSP superstep. GAS scatters
	// at the end of every superstep that changed something, and once more
	// at superstep 0, ahead of its first gather.
	rounds := int64(len(steps))
	var got, want gxplug.Stats
	for _, si := range steps {
		if cfg.Spec.Model == engine.GAS && !si.Changed {
			rounds--
		}
		if cfg.Spec.Model == engine.GAS && si.Iteration == 0 {
			rounds++
		}
		got.CacheHits += si.CacheHits
		got.CacheMisses += si.CacheMisses
		got.CacheEvictions += si.CacheEvictions
		got.DirtySpills += si.CacheDirtySpills
		got.StallRetries += si.FaultRetries
	}
	for j, as := range res.AgentStats {
		if as.Iterations != rounds {
			t.Errorf("%s: agent %d counts %d iterations, the %d reports imply %d", name, j, as.Iterations, len(steps), rounds)
		}
		want.CacheHits += as.CacheHits
		want.CacheMisses += as.CacheMisses
		want.CacheEvictions += as.CacheEvictions
		want.DirtySpills += as.DirtySpills
		want.StallRetries += as.StallRetries
	}
	if got != want {
		t.Errorf("%s: reports sum to hits=%d misses=%d evictions=%d spills=%d retries=%d,\n"+
			"AgentStats to hits=%d misses=%d evictions=%d spills=%d retries=%d", name,
			got.CacheHits, got.CacheMisses, got.CacheEvictions, got.DirtySpills, got.StallRetries,
			want.CacheHits, want.CacheMisses, want.CacheEvictions, want.DirtySpills, want.StallRetries)
	}
	return want
}
