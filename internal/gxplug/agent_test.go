package gxplug

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/cluster"
	"gxplug/internal/device"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/synccache"
	"gxplug/internal/gxplug/template"
)

// fakeUpper is a minimal upper system: a global attribute array with a
// configurable boundary cost (fixed per batch + per byte), standing in
// for the JNI/data-packager boundary in tests.
type fakeUpper struct {
	stride  int
	attrs   []float64
	fixed   time.Duration
	perByte float64 // seconds per byte
	pushes  int     // PushAttrs batches observed
}

func newFakeUpper(g *graph.Graph, alg template.Algorithm, ctx *template.Context) *fakeUpper {
	u := &fakeUpper{
		stride:  alg.AttrWidth(),
		attrs:   make([]float64, g.NumVertices()*alg.AttrWidth()),
		fixed:   5 * time.Microsecond,
		perByte: 1.0 / 2e9, // 2 GB/s boundary
	}
	for v := 0; v < g.NumVertices(); v++ {
		alg.Init(ctx, graph.VertexID(v), u.attrs[v*u.stride:(v+1)*u.stride])
	}
	return u
}

func (u *fakeUpper) BoundaryCost(bytes int64) time.Duration {
	return u.fixed + time.Duration(float64(bytes)*u.perByte*float64(time.Second))
}

func (u *fakeUpper) FetchAttrs(ids []graph.VertexID, dst []float64) time.Duration {
	for i, id := range ids {
		copy(dst[i*u.stride:(i+1)*u.stride], u.attrs[int(id)*u.stride:(int(id)+1)*u.stride])
	}
	return u.BoundaryCost(int64(len(ids)) * int64(8*u.stride+4))
}

func (u *fakeUpper) PushAttrs(ids []graph.VertexID, rows []float64) time.Duration {
	u.pushes++
	for i, id := range ids {
		copy(u.attrs[int(id)*u.stride:(int(id)+1)*u.stride], rows[i*u.stride:(i+1)*u.stride])
	}
	return u.BoundaryCost(int64(len(ids)) * int64(8*u.stride+4))
}

func (u *fakeUpper) PushMessages(count int, bytes int64) time.Duration {
	return u.BoundaryCost(bytes)
}
func (u *fakeUpper) FetchMessages(count int, bytes int64) time.Duration {
	return u.BoundaryCost(bytes)
}

func testCtx(g *graph.Graph) *template.Context {
	return &template.Context{
		NumVertices: g.NumVertices(),
		OutDeg:      func(v graph.VertexID) int { return g.OutDegree(v) },
		InDeg:       func(v graph.VertexID) int { return g.InDegree(v) },
	}
}

// driveAgents runs a full BSP execution of alg over g on m simulated
// nodes, each with its own agent/daemon stack, and returns the final
// authoritative attributes plus the cluster (for cost inspection).
func driveAgents(t *testing.T, g *graph.Graph, m int, alg template.Algorithm, opts Options) ([]float64, *cluster.Cluster, []*Agent) {
	t.Helper()
	part := graph.EdgeCutByHash(g, m)
	cl := cluster.New(m, cluster.DatacenterNet())
	ctx := testCtx(g)
	upper := newFakeUpper(g, alg, ctx)

	agents := make([]*Agent, m)
	for j := 0; j < m; j++ {
		agents[j] = NewAgent(cl.Node(j), part, alg, ctx, upper, opts)
		if err := agents[j].Connect(); err != nil {
			t.Fatalf("node %d connect: %v", j, err)
		}
	}

	hints := alg.Hints()
	active := template.InitialFrontier(alg, g.NumVertices())
	for iter := 0; ; iter++ {
		if hints.MaxIterations > 0 && iter >= hints.MaxIterations {
			break
		}
		ctx.Iteration = iter
		results := make([]*GenResult, m)
		for j := 0; j < m; j++ {
			res, err := agents[j].RequestGen(func(id graph.VertexID) bool { return active[id] })
			if err != nil {
				t.Fatalf("iter %d node %d gen: %v", iter, j, err)
			}
			results[j] = res
		}
		// Route remote messages to owners, pre-merging across senders.
		incoming := make([]*MsgBuf, m)
		for o := range incoming {
			incoming[o] = NewMsgBuf(alg, len(part.Parts[o].Masters))
			for j := 0; j < m; j++ {
				if j == o {
					continue
				}
				out := results[j].To[o]
				for _, row := range out.Touched() {
					incoming[o].Merge(row, out.Row(row))
				}
			}
		}
		changedAny := false
		for j := 0; j < m; j++ {
			if err := agents[j].RequestMerge(results[j], incoming[j]); err != nil {
				t.Fatalf("iter %d node %d merge: %v", iter, j, err)
			}
			ar, err := agents[j].RequestApply(results[j])
			if err != nil {
				t.Fatalf("iter %d node %d apply: %v", iter, j, err)
			}
			for mi, ch := range ar.Changed {
				id := agents[j].Masters()[mi]
				active[id] = ch
				if ch {
					changedAny = true
				}
			}
		}
		if !changedAny {
			break
		}
	}
	for j := 0; j < m; j++ {
		agents[j].Disconnect()
	}
	return upper.attrs, cl, agents
}

func fastOpts() Options {
	o := DefaultOptions()
	// A small CPU device keeps unit tests quick while exercising the same
	// code paths.
	o.Devices = []device.Spec{device.Xeon20()}
	return o
}

func maxDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if math.IsInf(a[i], 1) && math.IsInf(b[i], 1) {
			continue
		}
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 400, NumEdges: 3000, A: 0.57, B: 0.19, C: 0.19, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAgentPageRankSingleNode(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	got, _, _ := driveAgents(t, g, 1, pr, fastOpts())
	want, _ := algos.RefPageRank(g, pr.Damping, pr.Tol, 0)
	if d := maxDiff(got, want); d > 1e-9 {
		t.Fatalf("PageRank diverges from reference by %v", d)
	}
}

func TestAgentPageRankThreeNodes(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	got, _, _ := driveAgents(t, g, 3, pr, fastOpts())
	want, _ := algos.RefPageRank(g, pr.Damping, pr.Tol, 0)
	if d := maxDiff(got, want); d > 1e-9 {
		t.Fatalf("3-node PageRank diverges from reference by %v", d)
	}
}

func TestAgentSSSPTwoNodes(t *testing.T) {
	g := testGraph(t)
	srcs := algos.DefaultSources(g.NumVertices())
	alg := algos.NewSSSPBF(srcs)
	got, _, _ := driveAgents(t, g, 2, alg, fastOpts())
	want, _ := algos.RefSSSPBF(g, srcs)
	if d := maxDiff(got, want); d > 1e-9 {
		t.Fatalf("SSSP diverges from reference by %v", d)
	}
}

func TestAgentCCFourNodes(t *testing.T) {
	g, err := gen.Road(gen.RoadConfig{Rows: 15, Cols: 15, DiagonalFraction: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := driveAgents(t, g, 4, algos.NewCC(), fastOpts())
	want, _ := algos.RefCC(g)
	if d := maxDiff(got, want); d != 0 {
		t.Fatalf("CC diverges from reference by %v", d)
	}
}

func TestAgentKCoreTwoNodes(t *testing.T) {
	g := testGraph(t)
	got, _, _ := driveAgents(t, g, 2, algos.NewKCore(3), fastOpts())
	want, _ := algos.RefKCore(g, 3)
	for v := 0; v < g.NumVertices(); v++ {
		if got[v*2] != want[v] {
			t.Fatalf("k-core: vertex %d alive=%v, want %v", v, got[v*2], want[v])
		}
	}
}

func TestAgentGPUMatchesCPU(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	cpuOpts := fastOpts()
	gpuOpts := fastOpts()
	gpuOpts.Devices = []device.Spec{device.V100()}
	gotCPU, _, _ := driveAgents(t, g, 2, pr, cpuOpts)
	gotGPU, _, _ := driveAgents(t, g, 2, pr, gpuOpts)
	if d := maxDiff(gotCPU, gotGPU); d > 1e-9 {
		t.Fatalf("GPU and CPU daemons disagree by %v", d)
	}
}

func TestAgentMultiDaemonMatchesSingle(t *testing.T) {
	g := testGraph(t)
	srcs := algos.DefaultSources(g.NumVertices())
	alg := algos.NewSSSPBF(srcs)
	one := fastOpts()
	two := fastOpts()
	two.Devices = []device.Spec{device.V100(), device.Xeon20()}
	got1, _, _ := driveAgents(t, g, 2, alg, one)
	got2, _, _ := driveAgents(t, g, 2, alg, two)
	if d := maxDiff(got1, got2); d > 1e-9 {
		t.Fatalf("mixed daemons disagree with single daemon by %v", d)
	}
}

// A GPU daemon must make the middleware compute time smaller than a CPU
// daemon once the workload is large enough to saturate it (tiny graphs
// legitimately favour the CPU's lower launch latency).
func TestAgentGPUFasterThanCPU(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{
		NumVertices: 8000, NumEdges: 120_000, A: 0.57, B: 0.19, C: 0.19, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lp := algos.NewLP() // compute-heavy kernel, fixed 15 iterations
	_, _, cpuAgents := driveAgents(t, g, 1, lp, fastOpts())
	gpuOpts := fastOpts()
	gpuOpts.Devices = []device.Spec{device.V100()}
	_, _, gpuAgents := driveAgents(t, g, 1, lp, gpuOpts)
	ct := cpuAgents[0].Stats().DeviceTime
	gt := gpuAgents[0].Stats().DeviceTime
	if gt >= ct {
		t.Fatalf("GPU device time %v not below CPU %v", gt, ct)
	}
}

func TestAgentCachingReducesBoundaryTraffic(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	withOpts := fastOpts()
	withoutOpts := fastOpts()
	withoutOpts.Caching = false

	gotWith, _, aWith := driveAgents(t, g, 2, pr, withOpts)
	gotWithout, _, aWithout := driveAgents(t, g, 2, pr, withoutOpts)
	if d := maxDiff(gotWith, gotWithout); d > 1e-9 {
		t.Fatalf("caching changed results by %v", d)
	}
	var bWith, bWithout time.Duration
	for _, a := range aWith {
		bWith += a.Stats().BoundaryTime
	}
	for _, a := range aWithout {
		bWithout += a.Stats().BoundaryTime
	}
	if bWith >= bWithout {
		t.Fatalf("caching did not reduce boundary time: %v vs %v", bWith, bWithout)
	}
}

func TestAgentPipelineFasterThanSequential(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	pipeOpts := fastOpts()
	pipeOpts.OptimalBlockSize = false
	pipeOpts.FixedBlockCount = 16
	seqOpts := pipeOpts
	seqOpts.Pipeline = false

	_, _, ap := driveAgents(t, g, 1, pr, pipeOpts)
	_, _, as := driveAgents(t, g, 1, pr, seqOpts)
	pt := ap[0].Stats().PipelineTime
	st := as[0].Stats().PipelineTime
	if pt >= st {
		t.Fatalf("pipelined %v not faster than sequential %v", pt, st)
	}
}

func TestAgentRawCallPaysInitRepeatedly(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	persistent := fastOpts()
	raw := fastOpts()
	raw.RawCall = true
	_, clP, _ := driveAgents(t, g, 1, pr, persistent)
	_, clR, _ := driveAgents(t, g, 1, pr, raw)
	if clR.MaxTime() <= clP.MaxTime() {
		t.Fatalf("raw-call run (%v) not slower than persistent daemon (%v)",
			clR.MaxTime(), clP.MaxTime())
	}
}

func TestAgentOOMSurfacesAtConnect(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 1)
	cl := cluster.New(1, cluster.DatacenterNet())
	ctx := testCtx(g)
	upper := newFakeUpper(g, pr, ctx)
	opts := fastOpts()
	tiny := device.V100()
	tiny.MemBytes = 1024 // nothing fits
	opts.Devices = []device.Spec{tiny}
	a := NewAgent(cl.Node(0), part, pr, ctx, upper, opts)
	err := a.Connect()
	if !errors.Is(err, device.ErrOutOfMemory) {
		t.Fatalf("connect err = %v, want ErrOutOfMemory", err)
	}
}

func TestAgentUseBeforeConnect(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 1)
	cl := cluster.New(1, cluster.DatacenterNet())
	ctx := testCtx(g)
	a := NewAgent(cl.Node(0), part, pr, ctx, newFakeUpper(g, pr, ctx), fastOpts())
	if _, err := a.RequestGen(nil); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("gen err = %v, want ErrNotConnected", err)
	}
	if _, err := a.RequestApply(&GenResult{}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("apply err = %v, want ErrNotConnected", err)
	}
}

// LocalOnly must be true when a range partition keeps a whole SSSP wave
// inside one node, and the hash partition must break that.
func TestApplyLocalOnlyFlag(t *testing.T) {
	// A long path: range partitioning gives each node a contiguous run.
	const n = 64
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v < n-1; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1), Weight: 1})
	}
	g := graph.MustFromEdges(n, edges)
	alg := algos.NewSSSPBF([]graph.VertexID{0})
	part := graph.EdgeCutByRange(g, 2)
	cl := cluster.New(2, cluster.DatacenterNet())
	ctx := testCtx(g)
	upper := newFakeUpper(g, alg, ctx)
	a := NewAgent(cl.Node(0), part, alg, ctx, upper, fastOpts())
	if err := a.Connect(); err != nil {
		t.Fatal(err)
	}
	defer a.Disconnect()
	active := template.InitialFrontier(alg, n)
	res, err := a.RequestGen(func(id graph.VertexID) bool { return active[id] })
	if err != nil {
		t.Fatal(err)
	}
	ar, err := a.RequestApply(res)
	if err != nil {
		t.Fatal(err)
	}
	if !ar.LocalOnly {
		t.Fatal("first SSSP wave on a range-partitioned path should be local-only")
	}
}

func TestAgentStatsPopulated(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	_, _, agents := driveAgents(t, g, 1, pr, fastOpts())
	s := agents[0].Stats()
	if s.Entities == 0 || s.Blocks == 0 || s.Iterations == 0 {
		t.Fatalf("stats not populated: %+v", s)
	}
	if s.DeviceTime == 0 || s.PipelineTime == 0 || s.BoundaryTime == 0 {
		t.Fatalf("time stats not populated: %+v", s)
	}
	if s.DeviceInit == 0 {
		t.Fatal("device init not recorded")
	}
}

// TestAgentBoundedCacheMatchesUnbounded drives the spill path at the
// agent layer: a cache bounded far below the vertex table must churn
// (evictions, dirty spills) yet finish with authoritative state
// bit-identical to the unbounded run — pending spills and dirty
// residents all land by Flush.
func TestAgentBoundedCacheMatchesUnbounded(t *testing.T) {
	g := testGraph(t)
	full, _, _ := driveAgents(t, g, 2, algos.NewPageRank(), fastOpts())

	bounded := fastOpts()
	bounded.CacheCapacity = g.NumVertices() / 16
	attrs, _, agents := driveAgents(t, g, 2, algos.NewPageRank(), bounded)

	var evictions, spills int64
	for _, a := range agents {
		s := a.Stats()
		evictions += s.CacheEvictions
		spills += s.DirtySpills
	}
	if evictions == 0 || spills == 0 {
		t.Fatalf("capacity %d drove no churn: evictions=%d spills=%d",
			bounded.CacheCapacity, evictions, spills)
	}
	for i := range attrs {
		if math.Float64bits(attrs[i]) != math.Float64bits(full[i]) {
			t.Fatalf("bounded cache changed attrs[%d]: %v vs %v", i, attrs[i], full[i])
		}
	}
}

// TestDrainSpillUploadsAtBoundary checks the spill queue contract
// directly: dirty evictions do not touch the upper system until
// DrainSpill, which uploads them as one batch, charges the node clock,
// and empties the queue.
func TestDrainSpillUploadsAtBoundary(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 1)
	cl := cluster.New(1, cluster.DatacenterNet())
	ctx := testCtx(g)
	upper := newFakeUpper(g, pr, ctx)
	opts := fastOpts()
	opts.CacheCapacity = 8
	a := NewAgent(cl.Node(0), part, pr, ctx, upper, opts)
	if err := a.Connect(); err != nil {
		t.Fatal(err)
	}
	defer a.Disconnect()

	if n := a.DrainSpill(); n != 0 {
		t.Fatalf("drain before any eviction uploaded %d rows", n)
	}
	res, err := a.RequestGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RequestApply(res); err != nil {
		t.Fatal(err)
	}
	// PageRank dirties every master; an 8-row cache must have evicted
	// dirty rows into the queue by now (gen re-fetches sources after the
	// apply write-backs churned the cache).
	if _, err := a.RequestGen(nil); err != nil {
		t.Fatal(err)
	}
	if len(a.spillIDs) == 0 {
		t.Fatal("no pending spills after bounded gen/apply/gen")
	}
	if int(upper.pushes) != 0 {
		t.Fatalf("upper saw %d pushes before the phase boundary", upper.pushes)
	}
	pending := len(a.spillIDs)
	before := a.Stats().PushedRows
	clock := cl.Node(0).Clock.Now()
	if n := a.DrainSpill(); n != pending {
		t.Fatalf("drained %d rows, %d pending", n, pending)
	}
	if got := a.Stats().PushedRows - before; got != int64(pending) {
		t.Fatalf("PushedRows advanced by %d for %d spilled rows", got, pending)
	}
	if cl.Node(0).Clock.Now() <= clock {
		t.Fatal("drain did not charge the node's virtual clock")
	}
	if len(a.spillIDs) != 0 || slices.ContainsFunc(a.spillSlot, func(slot int32) bool { return slot != 0 }) {
		t.Fatal("drain left the queue non-empty")
	}
	if n := a.DrainSpill(); n != 0 {
		t.Fatalf("second drain uploaded %d rows", n)
	}
}

// TestUploadQueriedDoesNotInflateHits: the lazy-upload bookkeeping reads
// must not count as cache hits (they are not computation reads) and the
// ids/rows pushed must stay length-consistent.
func TestUploadQueriedDoesNotInflateHits(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 1)
	cl := cluster.New(1, cluster.DatacenterNet())
	ctx := testCtx(g)
	a := NewAgent(cl.Node(0), part, pr, ctx, newFakeUpper(g, pr, ctx), fastOpts())
	if err := a.Connect(); err != nil {
		t.Fatal(err)
	}
	defer a.Disconnect()
	res, err := a.RequestGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RequestApply(res); err != nil {
		t.Fatal(err)
	}

	before := a.Stats()
	q := synccache.NewQueryQueue()
	q.Push(a.Masters())
	n := a.UploadQueried(q)
	after := a.Stats()
	if n == 0 {
		t.Fatal("no dirty masters uploaded after a PageRank apply")
	}
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Fatalf("bookkeeping reads counted: hits %d->%d misses %d->%d",
			before.CacheHits, after.CacheHits, before.CacheMisses, after.CacheMisses)
	}
	if after.PushedRows-before.PushedRows != int64(n) {
		t.Fatalf("UploadQueried returned %d but pushed %d rows", n, after.PushedRows-before.PushedRows)
	}
}

func TestAgentDoubleConnect(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 1)
	cl := cluster.New(1, cluster.DatacenterNet())
	ctx := testCtx(g)
	a := NewAgent(cl.Node(0), part, pr, ctx, newFakeUpper(g, pr, ctx), fastOpts())
	if err := a.Connect(); err != nil {
		t.Fatal(err)
	}
	defer a.Disconnect()
	if err := a.Connect(); err == nil {
		t.Fatal("double connect accepted")
	}
}

// Block cutting: for random graphs, row subsets and block sizes, every
// selected edge lands in exactly one block, no block is empty or over
// capacity, triplet rows resolve to their endpoints, and a vertex block
// lists each referenced vertex once.
func TestBuildBlocksCutsAndPairs(t *testing.T) {
	held, remote := 0, 0 // block vertices with and without a table row
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.ER(gen.ERConfig{NumVertices: 2 + rng.Intn(30), NumEdges: int64(rng.Intn(120)), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pr := algos.NewPageRank()
		part := graph.EdgeCutByHash(g, 2)
		ctx := testCtx(g)
		a := NewAgent(cluster.New(2, cluster.DatacenterNet()).Node(1), part, pr, ctx, newFakeUpper(g, pr, ctx), fastOpts())

		// Several plans on one agent: each rebuild overwrites the slabs and
		// the vertex index of the one before, and must not see any of it.
		for round := 0; round < 3; round++ {
			var rows []int
			want := 0
			for r := 0; r < a.vt.Len(); r++ {
				if rng.Intn(4) > 0 {
					s, e := a.mt.EdgeRange(r)
					rows = append(rows, r)
					want += e - s
				}
			}
			blockEdges := 1 + rng.Intn(7)
			total := 0
			for bi, bp := range a.buildBlocks(rows, blockEdges) {
				if n := len(bp.eb.Triplets); n == 0 || n > blockEdges {
					t.Fatalf("seed %d round %d block %d: %d triplets, capacity %d", seed, round, bi, n, blockEdges)
				}
				total += len(bp.eb.Triplets)
				for _, tr := range bp.eb.Triplets {
					if bp.vb.IDs[tr.SrcRow] != tr.Src || bp.vb.IDs[tr.DstRow] != tr.Dst {
						t.Fatalf("seed %d round %d block %d: triplet rows do not resolve to endpoints", seed, round, bi)
					}
				}
				seen := make(map[graph.VertexID]bool)
				if len(bp.rows) != len(bp.vb.IDs) {
					t.Fatalf("seed %d round %d block %d: %d table rows for %d vertices", seed, round, bi, len(bp.rows), len(bp.vb.IDs))
				}
				for i, id := range bp.vb.IDs {
					if seen[id] {
						t.Fatalf("seed %d round %d block %d: vertex %d listed twice", seed, round, bi, id)
					}
					seen[id] = true
					want := -1 // this node holds no copy of a remote destination
					if r, ok := a.vt.Lookup(id); ok {
						want = r
						held++
					} else {
						remote++
					}
					if int(bp.rows[i]) != want {
						t.Fatalf("seed %d round %d block %d: vertex %d planned at table row %d, want %d", seed, round, bi, id, bp.rows[i], want)
					}
				}
				if len(bp.vb.Attrs) != len(bp.vb.IDs)*bp.vb.Stride {
					t.Fatalf("seed %d round %d block %d: %d attribute slots for %d vertices", seed, round, bi, len(bp.vb.Attrs), len(bp.vb.IDs))
				}
				for _, v := range bp.vb.Attrs {
					if v != 0 {
						t.Fatalf("seed %d round %d block %d: attribute window not zeroed", seed, round, bi)
					}
				}
				// What fillBlock would leave behind for the next plan.
				for i := range bp.vb.Attrs {
					bp.vb.Attrs[i] = 7
				}
			}
			if total != want {
				t.Fatalf("seed %d round %d: blocks carry %d triplets, selected rows have %d", seed, round, total, want)
			}
		}
	}
	if held == 0 || remote == 0 {
		t.Fatalf("plans covered %d held and %d remote block vertices, want both", held, remote)
	}
}
