package gxplug

import (
	"errors"
	"fmt"
	"time"

	"gxplug/internal/cluster"
	"gxplug/internal/device"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/synccache"
	"gxplug/internal/gxplug/template"
	"gxplug/internal/shm"
	"gxplug/internal/simtime"
)

// An Agent lives in a distributed node of an upper system and bridges it
// to one or more daemons (§II-A2). It owns the node's vertex/edge tables
// and vertex-edge mapping table, cuts them into blocks, drives the
// pipeline-shuffle rotation protocol against each daemon, and carries the
// inter-iteration optimizations: the synchronization cache with lazy
// uploading, and the bookkeeping behind synchronization skipping.

// memcpyRate is the host memory bandwidth used to cost block building and
// result draining (bytes/second).
const memcpyRate = 10e9

// bucketMiddleware is the accounting bucket every agent/daemon cost lands
// in; engines charge everything else to "upper". Fig 14 is the ratio.
const bucketMiddleware = "middleware"

// RowBytes is the raw size of one routed row — an attribute row or a
// message — as it crosses a runtime boundary or a link: a 4-byte vertex
// id plus width float64 values. Every layer that sizes row traffic
// (agent, engine, baselines) calls it, so the record layout is decided
// here and nowhere else.
func RowBytes(width int) int64 { return int64(8*width + 4) }

// Upper is the interface an upper system exposes to its agent: batch data
// transfer across the runtime boundary, and that boundary's price (for a
// GraphX-class system this boundary is JNI plus the data packager; for a
// PowerGraph-class system it is a cheap in-process copy). The agent prices
// every crossing itself, rows or messages, as BoundaryCost of their
// RowBytes.
type Upper interface {
	// FetchAttrs copies the authoritative rows for ids into dst
	// (len(ids)*AttrWidth).
	FetchAttrs(ids []graph.VertexID, dst []float64)
	// PushAttrs writes rows back to the upper system. ids and rows are the
	// agent's scratch: the upper system copies what it keeps.
	PushAttrs(ids []graph.VertexID, rows []float64)
	// BoundaryCost is the virtual cost of moving bytes across the
	// boundary; it moves nothing.
	BoundaryCost(bytes int64) time.Duration
}

// Options configure one agent.
type Options struct {
	// Devices lists the accelerators to spawn daemons for ("an agent
	// connects one or more daemons, according to the number of
	// accelerators that the system allocates").
	Devices []device.Spec
	// RawCall disables runtime isolation: the device is re-initialized
	// around every daemon operation (Fig 13's comparison point).
	RawCall bool
	// Pipeline enables pipeline shuffle (§III-A); when false the five-step
	// sequential flow is costed, including the two inter-process copies
	// shared memory would eliminate.
	Pipeline bool
	// OptimalBlockSize selects the Lemma 1 block count each iteration;
	// otherwise FixedBlockCount is used.
	OptimalBlockSize bool
	// FixedBlockCount is the block count when OptimalBlockSize is off.
	FixedBlockCount int
	// Caching enables the synchronization cache and lazy uploading
	// (§III-B2). When off, every fetch hits the upper system and every
	// update is pushed back immediately.
	Caching bool
	// CacheCapacity bounds the cache in rows; 0, like anything above the
	// node's vertex table, sizes it to the table (everything fits — the
	// common deployment).
	CacheCapacity int
	// Skipping enables synchronization skipping (§III-B3). The agent only
	// reports locality; engines make the global decision.
	Skipping bool
}

// DefaultOptions enables every optimization with one V100-class GPU.
func DefaultOptions() Options {
	return Options{
		Devices:          []device.Spec{device.V100()},
		Pipeline:         true,
		OptimalBlockSize: true,
		FixedBlockCount:  32,
		Caching:          true,
		Skipping:         true,
	}
}

// GPUOptions returns DefaultOptions with n memory-scaled V100 daemons —
// the standard accelerated configuration of the evaluation, shared by
// the public gx profiles and the harness.
func GPUOptions(scale int64, n int) Options {
	o := DefaultOptions()
	o.Devices = nil
	for i := 0; i < n; i++ {
		o.Devices = append(o.Devices, device.V100Scaled(scale))
	}
	return o
}

// CPUOptions returns DefaultOptions with one CPU accelerator.
func CPUOptions() Options {
	o := DefaultOptions()
	o.Devices = []device.Spec{device.Xeon20()}
	return o
}

// Stats counts one agent's activity. An agent's counts start over at
// every TakeStats; DeviceInit and LastBlocks are gauges, which a take
// leaves standing.
type Stats struct {
	Entities int64 // triplets processed (d, for the Fig 15 sweep)
	Blocks   int64
	// Iterations counts gen rounds, one per RequestGen, not supersteps: a
	// fresh GAS run of n supersteps counts n+1 (the superstep-0 scatter is
	// a round of its own). Fig 15's per-iteration figures and the
	// benchmark's blocks_per_superstep divide by it.
	Iterations   int64
	DeviceTime   time.Duration
	BoundaryTime time.Duration
	PipelineTime time.Duration
	CacheHits    int64
	CacheMisses  int64
	// CacheEvictions counts entries dropped from the synchronization
	// cache (capacity evictions and invalidations); CacheInvalidations
	// is the invalidation subset, so CacheEvictions - CacheInvalidations
	// isolates capacity pressure (zero unbounded).
	CacheEvictions     int64
	CacheInvalidations int64
	// DirtySpills counts dirty rows queued for upload by capacity
	// evictions; the queue drains at the next serialized phase boundary
	// (DrainSpill), never from inside a parallel phase.
	DirtySpills int64
	PushedRows  int64
	// StallRetries counts injected message stalls absorbed by the
	// bounded retry/backoff schedule (fault.go).
	StallRetries int64
	// DeviceInit is Connect's device initialization; LastBlocks is the
	// block count of the latest RequestGen.
	DeviceInit time.Duration
	LastBlocks int
}

// Add adds d's counts into s and takes d's gauges.
func (s *Stats) Add(d Stats) {
	s.Entities += d.Entities
	s.Blocks += d.Blocks
	s.Iterations += d.Iterations
	s.DeviceTime += d.DeviceTime
	s.BoundaryTime += d.BoundaryTime
	s.PipelineTime += d.PipelineTime
	s.CacheHits += d.CacheHits
	s.CacheMisses += d.CacheMisses
	s.CacheEvictions += d.CacheEvictions
	s.CacheInvalidations += d.CacheInvalidations
	s.DirtySpills += d.DirtySpills
	s.PushedRows += d.PushedRows
	s.StallRetries += d.StallRetries
	s.DeviceInit, s.LastBlocks = d.DeviceInit, d.LastBlocks
}

// Agent is the per-node middleware endpoint.
type Agent struct {
	node  *cluster.Node
	parts *graph.Partitioning // the routing index GenResults address by
	part  *graph.Partition    // this node's share of parts
	alg   template.Algorithm
	ctx   *template.Context
	upper Upper
	opts  Options

	// vt lists the node's masters first, in Masters order: master index
	// i is vertex-table row i. Its edges are part.Edges, grouped by
	// source, and part.RowEdges[r] is row r's range of them.
	vt *graph.VertexTable

	daemons []*daemonProc
	// rates[i] is daemon i's saturated compute rate and rate their sum
	// (device.Capacity): splitByRate's shares and Lemma 1's k2 read them.
	rates   []float64
	rate    float64
	topoSeg *shm.Segment // which every daemon attaches too
	topo    []byte       // the agent's attachment: the planned triplets (buildBlocks)
	// store says which rows of vt hold authoritative values, which of
	// those are dirty, and which was used least recently: vt's rows are
	// the synchronization cache's values, there is no second copy. With
	// caching off it holds the whole table and only marks the rows already
	// fetched this iteration.
	store *synccache.Store

	// The dirty-eviction spill queue: rows a bounded cache evicted while
	// still dirty, waiting to be uploaded at the next serialized phase
	// boundary (DrainSpill). Uploading from inside admit would write the
	// upper system's shared state mid-phase while the engine's worker pool
	// runs nodes concurrently. The queue copies the row out of vt at
	// eviction time because vt moves on — the next fetch or apply of that
	// vertex overwrites it before the drain. spillSlot[row] is 1 + the
	// row's queue position (0: not queued), so a re-evicted row keeps only
	// its latest value; allocated only for a store that can evict.
	spillIDs  []graph.VertexID
	spillRows []float64 // dense, len(spillIDs)*AttrWidth
	spillSlot []int32

	// prevRows and prevBlockEdges remember the previous iteration's block
	// plan for topology-residency detection; blocks is that plan, reused
	// as-is while the frontier is stable. Its blocks are windows of topo
	// and of two slabs, the vertex ids and their table rows, which
	// buildBlocks refills in place on a frontier change; blockIdx is
	// buildBlocks' vertex → block-local row index and vEnds its scratch.
	prevRows       []int
	prevBlockEdges int
	blocks         []blockPlan
	blockIDs       []graph.VertexID
	blockRows      []int32
	blockIdx       []int32
	vEnds          []int

	// Reusable per-superstep scratch; result is nextResult's one GenResult.
	result   *GenResult
	rowsBuf  []int
	fillRows []int
	drainMsg []float64
	missIDs  []graph.VertexID
	missRows []int
	fetchBuf []float64
	apply    applyScratch
	// One daemon's pipeline at a time (runPipeline): stage costs of all its
	// blocks in one slab, stageCosts[i] the three of block i.
	stageSlab  []time.Duration
	stageCosts []simtime.StageCosts
	// spans is splitByRate's result.
	spans []span
	// pushIDs/pushRows stage one PushAttrs batch (RequestApply without
	// the cache, UploadQueried, Flush).
	pushIDs  []graph.VertexID
	pushRows []float64

	// Engine-armed fault state (fault.go): pending message stalls and
	// an armed device OOM. Daemon crashes live on the daemonProc.
	stallPending int
	oomPending   bool

	stats     Stats
	connected bool
}

// applyScratch holds RequestApply's per-superstep buffers, reused across
// iterations.
type applyScratch struct {
	sel     []int
	changed []bool
	wrote   []bool
	result  ApplyResult
}

// ErrNotConnected reports use of an agent before Connect.
var ErrNotConnected = errors.New("gxplug: agent not connected")

// NewAgent wires an agent over node's share of a partitioning. ctx must
// expose the global degree functions; upper is the engine-side boundary.
func NewAgent(node *cluster.Node, parts *graph.Partitioning, alg template.Algorithm,
	ctx *template.Context, upper Upper, opts Options) *Agent {
	if len(opts.Devices) == 0 {
		panic("gxplug: agent with no devices")
	}
	if opts.FixedBlockCount <= 0 {
		opts.FixedBlockCount = 32
	}
	part := parts.Parts[node.ID]
	vt := part.Tables(alg.AttrWidth())
	a := &Agent{
		node: node, parts: parts, part: part, alg: alg, ctx: ctx, upper: upper, opts: opts,
		vt:       vt,
		blockIdx: make([]int32, len(parts.Owner)),
		rate:     device.Capacity(opts.Devices...),
	}
	for _, spec := range opts.Devices {
		a.rates = append(a.rates, device.Capacity(spec))
	}
	capacity := 0 // without caching: a mark per row, never an eviction
	if opts.Caching {
		capacity = opts.CacheCapacity
	}
	a.store = synccache.New(vt.Len(), capacity)
	if a.store.Bounded() {
		a.spillSlot = make([]int32, vt.Len())
	}
	return a
}

// nextResult resets and returns the agent's one GenResult. One suffices:
// the engine merges into and applies a superstep's result — a GAS
// scatter's in the next round's gather — before it asks for the next one.
func (a *Agent) nextResult() *GenResult {
	if a.result == nil {
		a.result = NewGenResult(a.alg, a.parts, a.node.ID)
	} else {
		a.result.Reset()
	}
	return a.result
}

// TakeStats returns the agent's counts since the previous call (since
// NewAgent, for the first) and starts them over.
func (a *Agent) TakeStats() Stats {
	// Without caching the store only ever sees Resident, Put and Clear,
	// which count nothing: these stay zero.
	cs := a.store.TakeStats()
	s := a.stats
	s.CacheHits, s.CacheMisses = cs.Hits, cs.Misses
	s.CacheEvictions, s.CacheInvalidations = cs.Evictions, cs.Invalidations
	a.stats = Stats{DeviceInit: s.DeviceInit, LastBlocks: s.LastBlocks}
	return s
}

// Connect creates the topology segment, spawns the daemons, initializes
// their devices (charged once — runtime isolation), sizes the shared
// segments, reserves device memory for the partition (OOM surfaces here,
// as in Fig 9b), and performs the initial download of the node's vertex
// table.
func (a *Agent) Connect() error {
	if a.connected {
		return errors.New("gxplug: agent already connected")
	}
	// The partition's triplets: the bytes partitionFootprint reserves.
	seg, err := a.node.IPC.Shmget(topoKey, max(1, len(a.part.Edges)*tripletBytes), shm.CreateExclusive)
	if err != nil {
		return fmt.Errorf("gxplug: topology segment: %w", err)
	}
	a.topoSeg = seg
	a.topo, _ = seg.Attach() // just created: cannot fail
	sizes := a.segmentSizes()
	var maxInit time.Duration
	footprint := a.partitionFootprint()
	perDaemon := footprint / int64(len(a.opts.Devices))
	for i, spec := range a.opts.Devices {
		dev := device.New(spec)
		proc, initCost, err := startDaemon(daemonConfig{
			index: i, ipc: a.node.IPC, dev: dev, alg: a.alg, ctx: a.ctx,
			segSizes: sizes, topo: a.topoSeg, rawCall: a.opts.RawCall,
		})
		if err != nil {
			a.teardown()
			return err
		}
		a.daemons = append(a.daemons, proc)
		if initCost > maxInit {
			maxInit = initCost
		}
		if !a.opts.RawCall {
			if err := dev.Alloc(perDaemon); err != nil {
				a.teardown()
				return fmt.Errorf("gxplug: partition does not fit device %s: %w", dev.Spec().Name, err)
			}
		}
	}
	// Devices initialize in parallel across daemons, once per run thanks
	// to runtime isolation. The cost is recorded but not charged to the
	// iteration clock: the paper reports computation time with
	// initialization factored out (it is measured separately in Fig 13,
	// where RawCall pays it on every operation).
	a.stats.DeviceInit = maxInit

	a.connected = true

	// Initial download: the whole vertex table, once.
	ids := make([]graph.VertexID, a.vt.Len())
	for i := range ids {
		ids[i] = a.vt.ID(i)
	}
	a.upper.FetchAttrs(ids, a.vt.Attrs())
	cost := a.cross(len(ids), a.alg.AttrWidth())
	a.charge(cost)
	for r := range ids {
		a.admit(r)
	}
	return nil
}

// Disconnect flushes dirty state and stops the daemons.
func (a *Agent) Disconnect() {
	if !a.connected {
		return
	}
	a.charge(a.Flush())
	a.teardown()
	a.connected = false
}

// teardown stops the daemons, which detach the topology segment as they
// exit, then removes it, and forgets the plan it held.
func (a *Agent) teardown() {
	for _, p := range a.daemons {
		p.shutdown()
	}
	if a.topoSeg != nil {
		_ = a.topoSeg.Detach() // attached in Connect: cannot fail
		a.topoSeg.Remove()
	}
	a.daemons, a.topoSeg, a.topo = nil, nil, nil
	a.DropResidency()
}

func (a *Agent) charge(d time.Duration) { a.node.Charge(bucketMiddleware, d) }

// cross prices n rows of width w crossing the runtime boundary, either
// way, and counts the cost as boundary time; the caller charges it.
func (a *Agent) cross(n, w int) time.Duration {
	cost := a.upper.BoundaryCost(int64(n) * RowBytes(w))
	a.stats.BoundaryTime += cost
	return cost
}

// segmentSizes picks each daemon segment's capacity: the largest block it
// holds plus slack. RequestGen cuts the d <= E active edges of the
// partition's E into Gen blocks of chooseBlockSize(d) triplets, which is
// monotone in d, so none outgrows chooseBlockSize(E) triplets; b triplets
// reference at most 2b vertices, and never more than the edge table has
// endpoints. An apply batch or merge block has a row per master at most.
// A block past the bound fails its encode ("block needs N bytes, segment
// has M") — loud, not wrong.
func (a *Agent) segmentSizes() [4]int {
	maxEdges := max(1, a.chooseBlockSize(len(a.part.Edges)))
	maxVerts := min(2*maxEdges, a.part.Endpoints)
	aw, mw, nM := int64(a.alg.AttrWidth()), int64(a.alg.MsgWidth()), int64(len(a.part.Masters)+1)
	gen := int(layGen(int64(maxVerts), aw, mw).end) + 64
	return [4]int{gen, gen, gen, int(max(layApply(nM, aw, mw).end, layMerge(nM, mw).end)) + 64}
}

// partitionFootprint estimates the device-resident bytes of this node's
// share of the graph.
func (a *Agent) partitionFootprint() int64 {
	return int64(len(a.part.Edges))*tripletBytes + int64(a.vt.Len())*int64(4+8*a.alg.AttrWidth())
}

// admit records that vertex-table row r now holds an authoritative value.
// A dirty eviction (the §III-B2a rule: "if the chosen vertices were
// updated in previous iterations, corresponding information will be
// uploaded") is queued on the spill queue instead of being pushed to the
// upper system here: admit runs inside the parallel gen/apply phases,
// where a mid-phase PushAttrs would race with other nodes' reads of the
// shared authoritative state. DrainSpill performs the upload at the next
// serialized phase boundary.
func (a *Agent) admit(r int) {
	if victim, dirty := a.store.Put(r); dirty {
		a.spill(victim)
	}
}

// spill queues the evicted dirty row r for upload at the phase boundary,
// keeping only the latest value per vertex.
func (a *Agent) spill(r int) {
	a.stats.DirtySpills++
	if sp, ok := a.spillRow(r); ok {
		copy(sp, a.vt.Row(r))
		return
	}
	a.spillIDs = append(a.spillIDs, a.vt.ID(r))
	a.spillRows = append(a.spillRows, a.vt.Row(r)...)
	a.spillSlot[r] = int32(len(a.spillIDs))
}

// spillRow returns the pending spilled value of row r, if any. Until the
// queue drains, the spilled row — not the upper system's copy — is the
// authoritative value of the vertex: an eagerly-uploading implementation
// would already have pushed it.
func (a *Agent) spillRow(r int) ([]float64, bool) {
	if len(a.spillIDs) == 0 || a.spillSlot[r] == 0 {
		return nil, false
	}
	aw, i := a.alg.AttrWidth(), int(a.spillSlot[r])-1
	return a.spillRows[i*aw : (i+1)*aw], true
}

// DrainSpill uploads every dirty row the cache evicted since the last
// drain, in eviction order, as one batch. The engine calls it at
// serialized phase boundaries (alongside the lazy-upload machinery), so
// the upper system's state is only ever written while node execution is
// serialized; the cost is charged to this node's virtual clock. It
// returns the number of rows uploaded.
func (a *Agent) DrainSpill() int {
	if len(a.spillIDs) == 0 {
		return 0
	}
	n := len(a.spillIDs)
	a.charge(a.pushAttrs(a.spillIDs, a.spillRows))
	a.clearSpill()
	return n
}

// pushAttrs uploads one batch of rows to the upper system, counts it and
// returns its cost for the caller to charge.
func (a *Agent) pushAttrs(ids []graph.VertexID, rows []float64) time.Duration {
	a.upper.PushAttrs(ids, rows)
	a.stats.PushedRows += int64(len(ids))
	return a.cross(len(ids), a.alg.AttrWidth())
}

func (a *Agent) clearSpill() {
	a.spillIDs = a.spillIDs[:0]
	a.spillRows = a.spillRows[:0]
	clear(a.spillSlot)
}

// ensureRows makes the vertex-table rows for the given row indices match
// authoritative state, returning the virtual cost. With caching, a
// resident row is a free hit and the misses batch-fetch; without, any row
// not yet fetched this iteration is fetched.
func (a *Agent) ensureRows(rows []int) time.Duration {
	missIDs := a.missIDs[:0]
	missRows := a.missRows[:0]
	for _, r := range rows {
		held := a.store.Resident(r)
		if a.opts.Caching {
			held = a.store.Get(r) // counted, and the row's recency moves
		}
		if !held {
			missIDs = append(missIDs, a.vt.ID(r))
			missRows = append(missRows, r)
		}
	}
	a.missIDs, a.missRows = missIDs, missRows
	if len(missIDs) == 0 {
		return 0
	}
	w := a.alg.AttrWidth()
	buf := grow(&a.fetchBuf, len(missIDs)*w)
	a.upper.FetchAttrs(missIDs, buf)
	cost := a.cross(len(missIDs), w)
	for i, r := range missRows {
		val := buf[i*w : (i+1)*w]
		// A pending spill means the upper system's copy is stale until the
		// phase boundary; the spilled row is the value an eager
		// per-eviction upload would have returned. The fetch cost was paid
		// above either way.
		if sp, ok := a.spillRow(r); ok {
			val = sp
		}
		copy(a.vt.Row(r), val)
		a.admit(r)
	}
	return cost
}

// grow resizes *buf to n elements, reallocating only on growth, and
// returns the sized slice. The contents are NOT cleared on reuse.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// InvalidateRemote tells the agent that the given vertices were updated
// by other nodes: the rows it holds of them are stale and the new values
// arrive with rows (dense, Stride-wide), charged as one boundary fetch.
// The caller names only vertices mastered on other nodes (the engine's
// mirror updates): the spill queue holds only this node's masters, so no
// pending spill of an invalidated row can exist.
func (a *Agent) InvalidateRemote(ids []graph.VertexID, rows []float64) {
	if len(ids) == 0 {
		return
	}
	w := a.alg.AttrWidth()
	cost := a.cross(len(ids), w)
	for i, id := range ids {
		r, ok := a.vt.Lookup(id)
		if !ok {
			continue
		}
		if a.opts.Caching {
			a.store.Invalidate(r)
		}
		copy(a.vt.Row(r), rows[i*w:(i+1)*w])
		a.admit(r)
	}
	a.charge(cost)
}
