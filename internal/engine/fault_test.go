package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/device"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gxplug"
)

func bothSpecs() []engine.Spec {
	return []engine.Spec{graphx.Spec(), powergraph.Spec()}
}

// Fatal faults surface as a typed FaultError carrying kind, node and
// superstep — never a hang or panic — on both engines.
func TestFatalFaultsSurfaceTyped(t *testing.T) {
	g := testGraph(t)
	kinds := []struct {
		kind   string
		unwrap error // expected in the chain (nil: just the typed error)
	}{
		{engine.FaultDaemonCrash, nil},
		{engine.FaultAccelOOM, device.ErrOutOfMemory},
	}
	for _, spec := range bothSpecs() {
		for _, k := range kinds {
			t.Run(spec.Name+"/"+k.kind, func(t *testing.T) {
				_, err := engine.Run(engine.Config{
					Spec: spec, Nodes: 3, Graph: g, Alg: algos.NewPageRank(),
					Plug: cpuPlug(),
					Faults: []engine.Fault{
						{Kind: k.kind, Node: 1, Superstep: 2},
					},
				})
				var fe *engine.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("want FaultError, got %v", err)
				}
				if fe.Kind != k.kind || fe.Node != 1 || fe.Superstep != 2 {
					t.Fatalf("wrong attribution: %+v", fe)
				}
				if k.unwrap != nil && !errors.Is(err, k.unwrap) {
					t.Fatalf("error %v does not unwrap to %v", err, k.unwrap)
				}
				var inj *gxplug.InjectedFaultError
				if !errors.As(err, &inj) {
					t.Fatalf("FaultError must wrap the middleware's InjectedFaultError, got %v", err)
				}
			})
		}
	}
}

// Message stalls within the retry budget are absorbed: the run
// completes with bit-identical results, strictly later virtual
// makespan (the deterministic retry/backoff schedule), and the
// observer reports the injection and its retries.
func TestMsgStallRecoverable(t *testing.T) {
	g := testGraph(t)
	for _, spec := range bothSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			base := engine.Config{
				Spec: spec, Nodes: 3, Graph: g, Alg: algos.NewPageRank(),
				Plug: cpuPlug(), MaxIter: 5,
			}
			clean, err := engine.Run(base)
			if err != nil {
				t.Fatal(err)
			}
			var infos []engine.SuperstepInfo
			cfg := base
			cfg.Faults = []engine.Fault{{Kind: engine.FaultMsgStall, Node: 0, Superstep: 1, Param: 3}}
			cfg.Observer = func(si engine.SuperstepInfo) { infos = append(infos, si) }
			faulted, err := engine.Run(cfg)
			if err != nil {
				t.Fatalf("recoverable stall failed the run: %v", err)
			}
			for i := range clean.Attrs {
				if clean.Attrs[i] != faulted.Attrs[i] {
					t.Fatalf("attr %d diverged under recovered stall", i)
				}
			}
			if faulted.Time <= clean.Time {
				t.Fatalf("stall retries must cost virtual time: %v !> %v", faulted.Time, clean.Time)
			}
			if infos[1].FaultsInjected != 1 || infos[1].FaultRetries != 3 {
				t.Fatalf("superstep 1 observer: %d faults, %d retries", infos[1].FaultsInjected, infos[1].FaultRetries)
			}
			if infos[0].FaultsInjected != 0 || infos[0].FaultRetries != 0 {
				t.Fatalf("superstep 0 observer leaked fault counters: %+v", infos[0])
			}
			again, err := engine.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again.Time != faulted.Time {
				t.Fatalf("fault charging not deterministic: %v vs %v", again.Time, faulted.Time)
			}
		})
	}
}

// A stall burst beyond the retry budget becomes a fatal msg-stall
// FaultError instead of retrying forever.
func TestMsgStallExhaustsRetries(t *testing.T) {
	g := testGraph(t)
	_, err := engine.Run(engine.Config{
		Spec: graphx.Spec(), Nodes: 2, Graph: g, Alg: algos.NewPageRank(),
		Plug:   cpuPlug(),
		Faults: []engine.Fault{{Kind: engine.FaultMsgStall, Node: 1, Superstep: 0, Param: 64}},
	})
	var fe *engine.FaultError
	if !errors.As(err, &fe) || fe.Kind != engine.FaultMsgStall {
		t.Fatalf("want fatal msg-stall FaultError, got %v", err)
	}
}

// Resuming from every checkpoint of a run reproduces the uninterrupted
// run bit for bit: final attributes, iteration count, virtual makespan
// and per-bucket totals — on both engines, native and plugged, and
// plugged with synchronization caches from one row to far more than any
// node's vertex table (a cut empties the ones that evict).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	g := testGraph(t)
	for _, spec := range bothSpecs() {
		base := engine.Config{
			Spec: spec, Nodes: 3, Graph: g, Alg: algos.NewPageRank(), MaxIter: 5,
		}
		t.Run(spec.Name, func(t *testing.T) { checkResumeBitIdentical(t, base) })
		t.Run(spec.Name+"+CPU", func(t *testing.T) {
			for _, capacity := range []int{0, 1, 7, 40, 100000} {
				t.Run(fmt.Sprintf("cache=%d", capacity), func(t *testing.T) {
					base.Plug = cpuPlug()
					base.Plug[0].CacheCapacity = capacity
					checkResumeBitIdentical(t, base)
				})
			}
		})
	}
}

func checkResumeBitIdentical(t *testing.T, base engine.Config) {
	var states []*engine.CheckpointState
	cfg := base
	cfg.CheckpointEvery = 1
	cfg.CheckpointSink = func(st *engine.CheckpointState) error {
		states = append(states, st)
		return nil
	}
	want, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != want.Iterations {
		t.Fatalf("%d checkpoints for %d supersteps", len(states), want.Iterations)
	}
	rcfg := base
	rcfg.CheckpointEvery = 1
	rcfg.CheckpointSink = func(*engine.CheckpointState) error { return nil }
	for _, st := range states {
		got, err := engine.Resume(rcfg, st)
		if err != nil {
			t.Fatalf("resume from superstep %d: %v", st.Iteration, err)
		}
		if got.Iterations != want.Iterations || got.SkippedSyncs != want.SkippedSyncs {
			t.Fatalf("resume@%d: %d iters %d skips, want %d/%d",
				st.Iteration, got.Iterations, got.SkippedSyncs, want.Iterations, want.SkippedSyncs)
		}
		for i := range want.Attrs {
			if got.Attrs[i] != want.Attrs[i] {
				t.Fatalf("resume@%d: attr %d not bit-identical", st.Iteration, i)
			}
		}
		if got.Time != want.Time || got.UpperTime != want.UpperTime || got.MiddlewareTime != want.MiddlewareTime {
			t.Fatalf("resume@%d: times %v/%v/%v, want %v/%v/%v", st.Iteration,
				got.Time, got.UpperTime, got.MiddlewareTime,
				want.Time, want.UpperTime, want.MiddlewareTime)
		}
	}
}

// A checkpoint's cut cost is charged in both the live and resumed
// incarnation, is visible to the observer, and scales the makespan
// versus a checkpoint-free run.
func TestCheckpointCostObserved(t *testing.T) {
	g := testGraph(t)
	base := engine.Config{
		Spec: powergraph.Spec(), Nodes: 3, Graph: g, Alg: algos.NewPageRank(),
		Plug: cpuPlug(), MaxIter: 4,
	}
	free, err := engine.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	var infos []engine.SuperstepInfo
	cfg := base
	cfg.CheckpointEvery = 2
	cfg.CheckpointSink = func(*engine.CheckpointState) error { return nil }
	cfg.Observer = func(si engine.SuperstepInfo) { infos = append(infos, si) }
	ck, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Time <= free.Time {
		t.Fatalf("checkpointing must cost virtual time: %v !> %v", ck.Time, free.Time)
	}
	for i, si := range infos {
		due := (i+1)%2 == 0
		if due && si.CheckpointTime <= 0 {
			t.Fatalf("superstep %d: checkpoint due but CheckpointTime=%v", i, si.CheckpointTime)
		}
		if !due && si.CheckpointTime != 0 {
			t.Fatalf("superstep %d: spurious CheckpointTime=%v", i, si.CheckpointTime)
		}
	}
}

// Resume rejects checkpoints that do not match the config's shape.
func TestResumeValidation(t *testing.T) {
	g := testGraph(t)
	cfg := engine.Config{
		Spec: graphx.Spec(), Nodes: 2, Graph: g, Alg: algos.NewPageRank(), MaxIter: 3,
	}
	var st *engine.CheckpointState
	ccfg := cfg
	ccfg.CheckpointEvery = 1
	ccfg.CheckpointSink = func(s *engine.CheckpointState) error { st = s; return nil }
	if _, err := engine.Run(ccfg); err != nil {
		t.Fatal(err)
	}
	muts := []struct {
		name string
		mut  func(*engine.CheckpointState, *engine.Config)
	}{
		{"nil", func(s *engine.CheckpointState, c *engine.Config) {}},
		{"zero iteration", func(s *engine.CheckpointState, c *engine.Config) { s.Iteration = 0 }},
		{"attr width", func(s *engine.CheckpointState, c *engine.Config) { s.AttrWidth = 7 }},
		{"attrs length", func(s *engine.CheckpointState, c *engine.Config) { s.Attrs = s.Attrs[:8] }},
		{"active length", func(s *engine.CheckpointState, c *engine.Config) { s.Active = s.Active[:1] }},
		{"node count", func(s *engine.CheckpointState, c *engine.Config) { c.Nodes = 3 }},
	}
	for _, tc := range muts {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "nil" {
				if _, err := engine.Resume(cfg, nil); err == nil {
					t.Fatal("nil checkpoint accepted")
				}
				return
			}
			c := cfg
			s := *st
			s.Attrs = append([]float64(nil), st.Attrs...)
			s.Active = append([]bool(nil), st.Active...)
			tc.mut(&s, &c)
			if _, err := engine.Resume(c, &s); err == nil {
				t.Fatal("mismatched checkpoint accepted")
			}
		})
	}
}
