package gxplug

import (
	"runtime"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/cluster"
	"gxplug/internal/device"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
)

// steadySuperstepAllocs connects node 0 of a two-node PageRank run (a
// stable frontier: the block plan is cut once), warms it up, and returns
// the allocations of one further superstep — RequestGen through the
// rotation pipeline, RequestMerge of a routed buffer, RequestApply — plus
// the number of blocks that superstep shipped.
func steadySuperstepAllocs(t *testing.T, numV int, numE int64, daemons, blockCount int) (allocs float64, blocks int) {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{NumVertices: numV, NumEdges: numE, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 2)
	ctx := testCtx(g)
	opts := fastOpts()
	opts.OptimalBlockSize = false
	opts.FixedBlockCount = blockCount
	for len(opts.Devices) < daemons {
		opts.Devices = append(opts.Devices, device.Xeon20())
	}
	a := NewAgent(cluster.New(2, cluster.DatacenterNet()).Node(0), part, pr, ctx, newFakeUpper(g, pr, ctx), opts)
	if err := a.Connect(); err != nil {
		t.Fatal(err)
	}
	defer a.Disconnect()

	// What node 1 would route here: one message for every other master.
	incoming := NewMsgBuf(pr, len(a.Masters()))
	for row := 0; row < len(a.Masters()); row += 2 {
		incoming.Merge(int32(row), []float64{0.25})
	}
	superstep := func() {
		res, err := a.RequestGen(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.RequestMerge(res, incoming); err != nil {
			t.Fatal(err)
		}
		if _, err := a.RequestApply(res); err != nil {
			t.Fatal(err)
		}
	}
	// Two warm-up supersteps: GenResults are double-buffered.
	superstep()
	superstep()
	allocs = testing.AllocsPerRun(10, superstep)
	return allocs, a.Stats().LastBlocks
}

// The block exchange allocates nothing per block and nothing that scales
// with a block's vertex count once the agent's slabs and the daemons'
// scratch have seen the frontier. What is left per superstep is fixed: a
// handful for the makespan recurrence and the kernel closures, plus the
// device pool's goroutines — two allocations per host CPU for each of the
// merge launch and every daemon's apply launch (internal/device, shared by
// all devices and outside the exchange).
func TestPluggedSteadySuperstepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name       string
		numV       int
		numE       int64
		daemons    int
		blockCount int
	}{
		{"small/1-daemon/4-blocks", 400, 3000, 1, 4},
		{"small/1-daemon/64-blocks", 400, 3000, 1, 64},
		{"large/1-daemon/4-blocks", 6000, 60000, 1, 4},
		{"large/1-daemon/64-blocks", 6000, 60000, 1, 64},
		{"small/2-daemons/64-blocks", 400, 3000, 2, 64},
		{"large/2-daemons/64-blocks", 6000, 60000, 2, 64},
	} {
		allocs, blocks := steadySuperstepAllocs(t, tc.numV, tc.numE, tc.daemons, tc.blockCount)
		ceiling := float64(12 + 2*(1+tc.daemons)*runtime.GOMAXPROCS(0))
		if blocks < tc.blockCount {
			t.Errorf("%s: %d blocks shipped, want at least %d", tc.name, blocks, tc.blockCount)
		}
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocations per steady superstep over %d blocks, want at most %.0f",
				tc.name, allocs, blocks, ceiling)
		}
	}
}
