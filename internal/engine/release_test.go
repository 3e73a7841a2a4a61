package engine

import (
	"errors"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/device"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
	"gxplug/internal/shm"
)

// applyPanics is an algorithm whose MSGApply panics on every vertex.
type applyPanics struct{ template.Algorithm }

func (applyPanics) MSGApply(*template.Context, graph.VertexID, []float64, []float64, bool) bool {
	panic("synthetic MSGApply panic")
}

// TestFailedRunReleasesIPC is the engine-level twin of gx's
// TestFailedPluggedRunReleasesDaemons: however a plugged run ends once
// an agent is connected — a later agent's device too small to connect, a
// fatal fault, a kernel panic in a fresh or a resumed run, a checkpoint
// sink's error, a panicking observer, a kernel panic on nodes running four
// daemons — no daemon queue or segment is left in any node's IPC namespace.
func TestFailedRunReleasesIPC(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{NumVertices: 400, NumEdges: 3000, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plug := gxplug.DefaultOptions()
	plug.Devices = append(plug.Devices, plug.Devices[0]) // two daemons a node
	four := gxplug.DefaultOptions()
	four.Devices = []device.Spec{device.V100(), device.Xeon20(), device.V100(), device.Xeon20()}
	base := Config{Spec: gasTestSpec(), Nodes: 3, Graph: g, Alg: algos.NewPageRank(), Plug: []gxplug.Options{plug}, MaxIter: 6}

	var cut *CheckpointState
	ckpt := base
	ckpt.CheckpointEvery = 2
	ckpt.CheckpointSink = func(st *CheckpointState) error {
		if cut == nil {
			cut = st
		}
		return nil
	}
	if _, err := Run(ckpt); err != nil || cut == nil {
		t.Fatalf("checkpointed run: %v, cut %v", err, cut)
	}

	with := func(edit func(*Config)) Config {
		cfg := base
		edit(&cfg)
		return cfg
	}
	sinkErr := errors.New("synthetic sink error")
	tiny := gxplug.DefaultOptions()
	tiny.Devices = []device.Spec{device.V100()}
	tiny.Devices[0].MemBytes = 512
	for _, tc := range []struct {
		name   string
		cfg    Config
		resume bool
	}{
		{"connect-oom", with(func(c *Config) { c.Plug = []gxplug.Options{plug, plug, tiny} }), false},
		{"accel-oom", with(func(c *Config) { c.Faults = []Fault{{Kind: FaultAccelOOM, Node: 1, Superstep: 1}} }), false},
		{"daemon-crash", with(func(c *Config) { c.Faults = []Fault{{Kind: FaultDaemonCrash, Node: 2, Superstep: 2, Param: 1}} }), false},
		{"msg-stall", with(func(c *Config) { c.Faults = []Fault{{Kind: FaultMsgStall, Node: 0, Superstep: 0, Param: 1000}} }), false},
		{"kernel-panic", with(func(c *Config) { c.Alg = applyPanics{algos.NewPageRank()} }), false},
		{"kernel-panic-resumed", with(func(c *Config) { c.Alg = applyPanics{algos.NewPageRank()} }), true},
		{"kernel-panic-four-daemons", with(func(c *Config) {
			c.Plug, c.Alg = []gxplug.Options{four}, applyPanics{algos.NewPageRank()}
		}), false},
		{"sink-error", with(func(c *Config) {
			c.CheckpointEvery, c.CheckpointSink = 1, func(*CheckpointState) error { return sinkErr }
		}), false},
		{"observer-panic", with(func(c *Config) { c.Observer = func(SuperstepInfo) { panic("synthetic observer panic") } }), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := resolve(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(p)
			func() {
				defer func() { _ = recover() }() // the observer's panic is the caller's
				if tc.resume {
					_, err = r.resume(cut)
				} else {
					_, err = r.run()
				}
				if err == nil {
					t.Error("the run succeeded")
				}
			}()
			for _, nd := range r.cl.Nodes() {
				// Nodes 0 and 1 connect before any case fails, and Connect
				// starts every daemon or none: the initial download it
				// charges shows both of a node's daemons were up.
				if nd.ID < 2 && nd.Bucket(bucketMiddleware) == 0 {
					t.Fatalf("node %d never connected its agent", nd.ID)
				}
				// Daemon d's keys are 1000+10d .. 1005+10d, the agent's topology
				// segment's 999 (gxplug/protocol.go): the scan covers four
				// daemons, the most any case runs on a node.
				for key := shm.Key(990); key <= 1005+10*3; key++ {
					if _, err := nd.IPC.Msgget(key, shm.Open); !errors.Is(err, shm.ErrNotFound) {
						t.Errorf("node %d: queue %d outlives the run (%v)", nd.ID, key, err)
					}
					if _, err := nd.IPC.Shmget(key, 1, shm.Open); !errors.Is(err, shm.ErrNotFound) {
						t.Errorf("node %d: segment %d outlives the run (%v)", nd.ID, key, err)
					}
				}
			}
		})
	}
}
