package gxplug

import (
	"math"
	"runtime"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/cluster"
	"gxplug/internal/device"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/synccache"
)

// steadyCase is one fixture of the steady-superstep allocation pins.
type steadyCase struct {
	name       string
	numV       int
	numE       int64
	daemons    int
	blockCount int
	// vertexCut partitions by greedy vertex-cut and, after each superstep,
	// has the agent answer a query for all its masters and delivers a
	// remote update of every mirror row, as the engine's distributeMirrors
	// does for a PageRank run.
	vertexCut bool
}

// connectSteady connects node 0 of tc's two-node PageRank run and returns
// it with the number of heap objects Connect allocated.
func connectSteady(t *testing.T, tc steadyCase) (*Agent, uint64) {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{NumVertices: tc.numV, NumEdges: tc.numE, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pr := algos.NewPageRank()
	part := graph.EdgeCutByRange(g, 2)
	if tc.vertexCut {
		part = graph.GreedyVertexCut(g, 2)
	}
	ctx := testCtx(g)
	opts := fastOpts()
	opts.OptimalBlockSize = false
	opts.FixedBlockCount = tc.blockCount
	for len(opts.Devices) < tc.daemons {
		opts.Devices = append(opts.Devices, device.Xeon20())
	}
	a := NewAgent(cluster.New(2, cluster.DatacenterNet()).Node(0), part, pr, ctx, newFakeUpper(g, pr, ctx), opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = a.Connect()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Disconnect)
	return a, after.Mallocs - before.Mallocs
}

// steadySuperstepAllocs warms the agent of a stable-frontier run up (the
// block plan is cut once) and returns the allocations of one further
// superstep — RequestGen through the rotation pipeline, RequestMerge of a
// routed buffer, RequestApply, and under vertex-cut the mirror updates —
// plus the number of blocks that superstep shipped and of mirror rows it
// was sent.
func steadySuperstepAllocs(t *testing.T, tc steadyCase) (allocs float64, blocks, mirrors int) {
	t.Helper()
	a, _ := connectSteady(t, tc)

	// What node 1 would route here: one message for every other master.
	incoming := NewMsgBuf(a.alg, len(a.part.Masters))
	for row := 0; row < len(a.part.Masters); row += 2 {
		incoming.Merge(int32(row), []float64{0.25})
	}
	// The rows past the masters are mirrors: sources mastered on node 1.
	var mirrorIDs []graph.VertexID
	for r := len(a.part.Masters); r < a.vt.Len(); r++ {
		mirrorIDs = append(mirrorIDs, a.vt.ID(r))
	}
	mirrorRows := make([]float64, len(mirrorIDs)*a.alg.AttrWidth())
	query := synccache.NewQueryQueue()
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
		if tc.vertexCut {
			query.Reset()
			query.Push(a.part.Masters)
			if a.UploadQueried(query) == 0 {
				t.Fatal("no dirty master uploaded after a PageRank apply")
			}
			a.InvalidateRemote(mirrorIDs, mirrorRows)
		}
	}
	superstep()
	allocs = testing.AllocsPerRun(10, superstep)
	return allocs, a.TakeStats().LastBlocks, len(mirrorIDs)
}

// The block exchange allocates nothing per block and nothing that scales
// with a block's vertex count once the agent's slabs and the daemons'
// scratch have seen the frontier, and a remote update of a mirror row
// moves flags and links of the vertex store, nothing else. What is left
// per superstep is fixed: a handful for the makespan recurrence and the
// kernel closures. A launch itself allocates nothing — the device reuses
// its last launch and the host helper pool its finished jobs — so the
// ceiling is a constant, whatever GOMAXPROCS, with the race detector or
// without.
func TestPluggedSteadySuperstepAllocs(t *testing.T) {
	const ceiling = 12
	for _, tc := range []steadyCase{
		{"small/1-daemon/4-blocks", 400, 3000, 1, 4, false},
		{"small/1-daemon/64-blocks", 400, 3000, 1, 64, false},
		{"large/1-daemon/4-blocks", 6000, 60000, 1, 4, false},
		{"large/1-daemon/64-blocks", 6000, 60000, 1, 64, false},
		{"small/2-daemons/64-blocks", 400, 3000, 2, 64, false},
		{"large/2-daemons/64-blocks", 6000, 60000, 2, 64, false},
		{"small/vertex-cut/64-blocks", 400, 3000, 1, 64, true},
		{"large/vertex-cut/64-blocks", 6000, 60000, 1, 64, true},
	} {
		allocs, blocks, mirrors := steadySuperstepAllocs(t, tc)
		if blocks < tc.blockCount {
			t.Errorf("%s: %d blocks shipped, want at least %d", tc.name, blocks, tc.blockCount)
		}
		if tc.vertexCut && mirrors < tc.numV/20 {
			t.Errorf("%s: only %d mirror rows updated per superstep", tc.name, mirrors)
		}
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocations per steady superstep over %d blocks and %d mirror updates, want at most %d",
				tc.name, allocs, blocks, mirrors, ceiling)
		}
	}
}

// Connect allocates a fixed number of objects — segments, daemons, the
// vertex store's flag and link arrays, the initial download's id list —
// whatever the size of the vertex table: nothing is allocated per vertex.
func TestConnectAllocsIndependentOfVertexCount(t *testing.T) {
	_, small := connectSteady(t, steadyCase{numV: 400, numE: 3000, daemons: 1, blockCount: 8})
	_, large := connectSteady(t, steadyCase{numV: 6000, numE: 60000, daemons: 1, blockCount: 8})
	t.Logf("Connect: %d objects over 400 vertices, %d over 6000", small, large)
	if large > small+8 { // slack for a runtime allocation landing in the window
		t.Errorf("Connect allocated %d objects over 6000 vertices against %d over 400", large, small)
	}
}

// Regression: cache_capacity arrives from outside (a scenario file, a gxd
// submission) and used to presize the cache's map — 50 000 000 on a
// 767-vertex graph cost 4.7 GB and 105 s. A capacity beyond the vertex
// table is the table's: set-up allocates what it does at capacity = table
// rows, and the run's results and counters are the same.
func TestCacheCapacityDoesNotSizeAllocation(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	setupBytes := func(capacity int) uint64 {
		opts := fastOpts()
		opts.CacheCapacity = capacity
		ctx := testCtx(g)
		upper := newFakeUpper(g, pr, ctx)
		node := cluster.New(2, cluster.DatacenterNet()).Node(0)
		part := graph.EdgeCutByRange(g, 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a := NewAgent(node, part, pr, ctx, upper, opts)
		err := a.Connect()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		a.Disconnect()
		return after.TotalAlloc - before.TotalAlloc
	}
	run := func(capacity int) ([]float64, []Stats) {
		opts := fastOpts()
		opts.CacheCapacity = capacity
		attrs, _, agents := driveAgents(t, g, 2, pr, opts)
		stats := make([]Stats, len(agents))
		for j, a := range agents {
			stats[j] = a.TakeStats()
		}
		return attrs, stats
	}
	// No node's table has more rows than the graph has vertices.
	fits := g.NumVertices()
	wantBytes := setupBytes(fits)
	wantAttrs, wantStats := run(fits)
	for _, capacity := range []int{1 << 22, math.MaxInt} {
		// 4 KB of slack: the runtime may allocate in the measured window.
		if got := setupBytes(capacity); got > wantBytes+4096 {
			t.Errorf("capacity %d: NewAgent+Connect allocated %d bytes, %d at capacity %d", capacity, got, wantBytes, fits)
		}
		attrs, stats := run(capacity)
		for i := range wantAttrs {
			if math.Float64bits(attrs[i]) != math.Float64bits(wantAttrs[i]) {
				t.Fatalf("capacity %d changed attrs[%d]: %v vs %v", capacity, i, attrs[i], wantAttrs[i])
			}
		}
		for j := range wantStats {
			if stats[j] != wantStats[j] {
				t.Errorf("capacity %d, node %d: stats %+v, want %+v", capacity, j, stats[j], wantStats[j])
			}
		}
	}
}

// Agents over one partitioning read its layout, they do not rebuild it:
// the edge and mapping tables alias the partition's storage, and NewAgent
// allocates per row (attributes, the store) and per vertex (blockIdx) but
// nothing per edge.
func TestAgentSetupSharesLayout(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{NumVertices: 300, NumEdges: 30_000, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pr := algos.NewPageRank()
	ctx := testCtx(g)
	for name, part := range map[string]*graph.Partitioning{
		"edge-cut": graph.EdgeCutByRange(g, 2), "vertex-cut": graph.GreedyVertexCut(g, 2),
	} {
		newAgent := func() *Agent {
			return NewAgent(cluster.New(2, cluster.DatacenterNet()).Node(0), part, pr, ctx, newFakeUpper(g, pr, ctx), fastOpts())
		}
		a, b := newAgent(), newAgent()
		if len(a.part.Edges) == 0 || &a.part.Edges[0] != &b.part.Edges[0] || &a.part.Edges[0] != &part.Parts[0].Edges[0] {
			t.Errorf("%s: agents hold private copies of the edge table", name)
		}
		if &a.part.RowEdges[0] != &b.part.RowEdges[0] {
			t.Errorf("%s: agents hold private copies of the mapping table", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := newAgent()
		runtime.ReadMemStats(&after)
		edgeBytes := uint64(len(c.part.Edges)) * 16
		if got := after.TotalAlloc - before.TotalAlloc; got > edgeBytes/4 {
			t.Errorf("%s: NewAgent allocated %d bytes over %d rows and %d edges (%d bytes of edges)",
				name, got, c.vt.Len(), len(c.part.Edges), edgeBytes)
		}
	}
}
