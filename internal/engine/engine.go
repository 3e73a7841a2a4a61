// Package engine provides the shared distributed-engine core that the
// GraphX-class (BSP) and PowerGraph-class (GAS) upper systems instantiate.
// An engine owns the authoritative vertex state, partitions the graph over
// a simulated cluster, and runs iterations either on its native executor
// (the paper's unaccelerated baselines) or through GX-Plug agents (the
// accelerated configurations). All distributed-side costs — native
// compute, per-superstep scheduling, message exchange, barriers — are
// charged to the "upper" accounting bucket; everything the middleware does
// lands in "middleware". Figure 14 is the ratio of the two.
package engine

import (
	"errors"
	"fmt"
	"time"

	"gxplug/internal/cluster"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/synccache"
	"gxplug/internal/gxplug/template"
)

// Model selects the computation model, which fixes the API call order
// (§IV-B2): BSP runs Gen→Merge→Apply, GAS runs Merge→Apply→Gen.
type Model int

const (
	// BSP is the Pregel-style bulk-synchronous model (GraphX).
	BSP Model = iota
	// GAS is the Gather-Apply-Scatter model (PowerGraph).
	GAS
)

func (m Model) String() string {
	if m == GAS {
		return "GAS"
	}
	return "BSP"
}

// Spec is the calibrated model of one upper system.
type Spec struct {
	Name  string
	Model Model

	// NativeRate is the effective operation rate (ops/second) of the
	// engine's built-in executor on one node — low for JVM-based systems,
	// native-code fast for C++ systems.
	NativeRate float64
	// SuperstepOverhead is the per-iteration scheduling cost (Spark DAG
	// scheduling for GraphX; cheap loop control for PowerGraph).
	SuperstepOverhead time.Duration
	// BoundaryFixed and BoundaryBandwidth cost the runtime boundary an
	// agent crosses per batch (JNI + data packager for GraphX; an
	// in-process copy for PowerGraph).
	BoundaryFixed     time.Duration
	BoundaryBandwidth float64
	// MsgByteFactor inflates wire volume for serialization overhead
	// (JVM object headers); 1.0 for compact native layouts.
	MsgByteFactor float64

	// Partition builds the engine's default partitioning.
	Partition func(g *graph.Graph, m int) *graph.Partitioning
}

// Config describes one run.
type Config struct {
	Spec  Spec
	Nodes int
	Graph *graph.Graph
	Alg   template.Algorithm

	// Partitioning overrides the engine default (used by the workload
	// balancing experiments).
	Partitioning *graph.Partitioning
	// Plug enables the middleware: nil means native execution; one entry
	// applies to every node; m entries configure nodes individually
	// (heterogeneous accelerator mixes).
	Plug []gxplug.Options
	// MaxIter caps iterations on top of the algorithm's own cap.
	MaxIter int
	// Faults is the deterministic fault-injection plan: each entry is
	// armed on its node's agent at the top of its superstep. Requires
	// Plug (faults live in the middleware layer). See fault.go.
	Faults []Fault
	// CheckpointEvery, when > 0, takes a consistent-cut checkpoint
	// after every CheckpointEvery completed supersteps and hands it to
	// CheckpointSink. The two must be set together. A cut empties every
	// synchronization cache too small for its node's vertex table (a Plug
	// option's CacheCapacity) after flushing it: what such a cache holds
	// depends on eviction history, which a resumed run cannot
	// reconstruct, so live and resumed runs both continue from empty.
	CheckpointEvery int
	CheckpointSink  func(*CheckpointState) error
	// Stream, when non-nil, makes the run dynamic (see incremental.go):
	// Graph is the initial version, and Run re-executes the algorithm at
	// every batch boundary on the evolved graph. Native-only (under
	// middleware the authoritative array lags behind lazily-uploaded
	// agent state, so there is no trajectory to replay), incompatible
	// with faults and checkpointing, and its default incremental mode
	// requires the algorithm's Hints.Incremental opt-in.
	Stream *BatchStream
	// Net overrides the cluster network (zero value: DatacenterNet).
	Net cluster.NetworkSpec
	// Observer, when non-nil, receives one SuperstepInfo after every
	// superstep. A nil Observer costs nothing: all bookkeeping behind the
	// report is gated on it.
	Observer Observer
}

// SuperstepInfo is the per-superstep progress report delivered to an
// Observer after each iteration completes. All times are virtual.
type SuperstepInfo struct {
	// Iteration is the zero-based iteration the report describes.
	Iteration int
	// Batch is the batch-boundary index on dynamic-graph runs (0 for the
	// seed boundary, and on every static run).
	Batch int
	// Frontier is the number of active vertices entering the superstep.
	Frontier int
	// Messages and MessageBytes count the cross-node messages routed
	// during the superstep (GAS charges a round's scatter to the round
	// that produces it, exactly as the exchange volumes are charged).
	Messages     int64
	MessageBytes int64
	// MirrorUpdates is the number of master→mirror attribute broadcasts
	// (non-zero only under vertex-cut partitioning).
	MirrorUpdates int
	// SkippedSync reports that this superstep's global synchronization was
	// skipped (§III-B3).
	SkippedSync bool
	// CacheHits, CacheMisses, CacheEvictions and CacheDirtySpills count
	// the synchronization-cache activity of this superstep, summed over
	// all agents (all zero on native runs). CacheEvictions counts every
	// cache departure — remote invalidations included, so it is non-zero
	// even for unbounded caches under vertex-cut partitioning; dirty
	// spills occur only with bounded caches (gxplug.Options.CacheCapacity).
	CacheHits        int64
	CacheMisses      int64
	CacheEvictions   int64
	CacheDirtySpills int64
	// FaultsInjected counts the scenario faults armed at the top of
	// this superstep; FaultRetries counts the injected message stalls
	// the middleware absorbed during it (bounded retry/backoff, charged
	// to virtual time), summed over all agents.
	FaultsInjected int
	FaultRetries   int64
	// CheckpointTime is the virtual makespan cost of the checkpoint
	// taken at the end of this superstep (zero when none was due).
	CheckpointTime time.Duration
	// Changed reports whether any vertex changed; the run ends after the
	// first superstep where it is false.
	Changed bool
	// Makespan is the cluster makespan so far (max over node clocks).
	Makespan time.Duration
	// UpperTime and MiddlewareTime are the cumulative per-bucket virtual
	// times summed over all nodes, as of the end of the superstep.
	UpperTime      time.Duration
	MiddlewareTime time.Duration
}

// Observer receives per-superstep progress reports. It is called
// synchronously from the iteration loop, after the superstep's costs have
// been charged, so implementations see a consistent snapshot; slow
// observers slow the host run down but can never change simulated time.
type Observer func(SuperstepInfo)

// Result is the outcome of a run.
type Result struct {
	// Attrs is the final authoritative attribute array (NumVertices × AttrWidth).
	Attrs []float64
	// Iterations executed (including skipped-sync iterations).
	Iterations int
	// SkippedSyncs counts iterations whose global synchronization was
	// skipped (§III-B3).
	SkippedSyncs int
	// Time is the cluster makespan.
	Time time.Duration
	// MiddlewareTime and UpperTime split the summed per-node cost.
	MiddlewareTime time.Duration
	UpperTime      time.Duration
	// AgentStats holds each node's middleware counts summed over the
	// supersteps the run reported, so they equal the sum of its
	// SuperstepInfo reports; setup, a resume's scatter replay and the
	// final flush count nowhere. DeviceInit is the one setup gauge.
	// nil when native.
	AgentStats []gxplug.Stats
	// Batches holds one report per batch boundary on dynamic-graph runs
	// (Config.Stream), seed boundary first; the run's counts and times
	// above are then totals over all boundaries, and Attrs and Cluster
	// the last boundary's. nil on static runs.
	Batches []BatchResult
	// Cluster exposes the underlying simulation for harness inspection.
	Cluster *cluster.Cluster
}

const (
	bucketUpper      = "upper"
	bucketMiddleware = "middleware"
)

// Run executes a full graph computation and returns the result. Results
// are bit-compatible with the algorithm's sequential reference up to
// floating-point merge order.
func Run(cfg Config) (*Result, error) {
	p, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Stream != nil {
		return runStream(p)
	}
	return newRunner(p).run()
}

// ConfigError is a Config that resolve rejected: nothing was set up and
// no superstep ran. The message is the underlying error's, unchanged.
type ConfigError struct {
	Err error
}

func (e *ConfigError) Error() string { return e.Err.Error() }
func (e *ConfigError) Unwrap() error { return e.Err }

// plan is a Config resolved exactly once: validated, with every default
// fixed. Run, Resume and EstimateCost all start from resolve's result, so
// a Config is accepted by all three or by none, with one error text.
type plan struct {
	cfg  Config
	part *graph.Partitioning // cfg.Partitioning, or the engine default
	net  cluster.NetworkSpec // cfg.Net, or DatacenterNet
	// plug is each node's middleware options in effect (nil on native
	// runs): Config.Plug's one-for-all or per-node form expanded. skip
	// reports that every node has synchronization skipping on (never on
	// native runs — the optimization lives in the middleware).
	plug []gxplug.Options
	skip bool
	// maxIter is the algorithm's own cap tightened by Config.MaxIter
	// (0: run to convergence).
	maxIter int
	aw, mw  int
	// boundaries is a stream's boundary source: Config.Stream.Boundaries,
	// or one that builds them for this run alone (nil on static runs).
	boundaries func(k int) (*Boundary, error)
}

// resolve validates cfg and fixes everything it leaves to defaults. It
// is the only Config validation in the package, and every rejection
// leaves it as a *ConfigError.
func resolve(cfg Config) (_ *plan, err error) {
	defer func() {
		if err != nil {
			err = &ConfigError{Err: err}
		}
	}()
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("engine: %d nodes", cfg.Nodes)
	}
	if cfg.Graph == nil || cfg.Alg == nil {
		return nil, fmt.Errorf("engine: nil graph or algorithm")
	}
	if len(cfg.Plug) > 1 && len(cfg.Plug) != cfg.Nodes {
		return nil, fmt.Errorf("engine: %d plug configs for %d nodes", len(cfg.Plug), cfg.Nodes)
	}
	for i, o := range cfg.Plug {
		if o.CacheCapacity < 0 {
			return nil, fmt.Errorf("engine: plug %d cache capacity %d (want ≥ 0)", i, o.CacheCapacity)
		}
	}
	if errs := (Combination{
		Plugged: len(cfg.Plug) > 0, Faults: len(cfg.Faults) > 0,
		Stream: cfg.Stream != nil, Checkpoint: cfg.CheckpointEvery > 0,
	}).Check(); len(errs) > 0 {
		return nil, errs[0]
	}
	if st := cfg.Stream; st != nil {
		if !st.Scratch && !cfg.Alg.Hints().Incremental {
			return nil, fmt.Errorf("engine: algorithm %s does not support incremental recomputation; run its batch stream with \"mode\": \"scratch\"", cfg.Alg.Name())
		}
		// Vertex growth depends on the adds alone, so the whole stream is
		// held to ApplyBatch's growth bound before the seed boundary runs.
		numV := cfg.Graph.NumVertices()
		for i, b := range st.Batches {
			if numV, err = b.GrowVertices(numV); err != nil {
				return nil, fmt.Errorf("engine: batch %d: %w", i+1, err)
			}
		}
	}
	for i, f := range cfg.Faults {
		if errs := f.Check(cfg.Nodes); len(errs) > 0 {
			return nil, fmt.Errorf("engine: fault %d: %w", i, errs[0])
		}
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("engine: checkpoint every %d (want ≥ 0)", cfg.CheckpointEvery)
	}
	if (cfg.CheckpointEvery > 0) != (cfg.CheckpointSink != nil) {
		return nil, fmt.Errorf("engine: CheckpointEvery and CheckpointSink must be set together")
	}
	part := cfg.Partitioning
	if part == nil {
		part = cfg.Spec.Partition(cfg.Graph, cfg.Nodes)
	}
	if part.NumNodes() != cfg.Nodes {
		return nil, fmt.Errorf("engine: partitioning has %d nodes, config %d", part.NumNodes(), cfg.Nodes)
	}
	p := &plan{
		cfg: cfg, part: part, net: cfg.Net,
		maxIter: cfg.Alg.Hints().MaxIterations,
		aw:      cfg.Alg.AttrWidth(),
		mw:      cfg.Alg.MsgWidth(),
	}
	if p.net.Bandwidth == 0 {
		p.net = cluster.DatacenterNet()
	}
	if st := cfg.Stream; st != nil {
		if p.boundaries = st.Boundaries; p.boundaries == nil {
			p.boundaries = p.chainBoundaries()
		}
	}
	if cfg.MaxIter > 0 && (p.maxIter == 0 || cfg.MaxIter < p.maxIter) {
		p.maxIter = cfg.MaxIter
	}
	if len(cfg.Plug) > 0 {
		p.plug = make([]gxplug.Options, cfg.Nodes)
		p.skip = true
		for j := range p.plug {
			o := cfg.Plug[0]
			if len(cfg.Plug) > 1 {
				o = cfg.Plug[j]
			}
			p.plug[j] = o
			p.skip = p.skip && o.Skipping
		}
	}
	return p, nil
}

// Combination names which optional parts a run combines: plugged
// middleware, a fault plan, a batch stream and checkpointing. The rules
// on combining them read nothing else, so a run's description can be
// checked before any graph is loaded.
type Combination struct{ Plugged, Faults, Stream, Checkpoint bool }

// Check returns every rule c breaks, in the order resolve reports them.
// A stream admits none of the other parts: incremental replay is
// engine-native (the middleware never sees its trace), and faults or
// checkpoint cuts would make boundaries non-replayable. Its rules come
// first, since "add an accelerator" is the wrong advice for a stream
// with faults. Outside a stream, faults need middleware: armed on a
// native node they would be a silent no-op.
func (c Combination) Check() []error {
	var errs []error
	add := func(rule string) { errs = append(errs, errors.New("engine: "+rule)) }
	switch {
	case c.Stream:
		if c.Faults {
			add("a batch stream cannot be combined with fault injection")
		}
		if c.Plugged {
			add("a batch stream requires native execution")
		}
		if c.Checkpoint {
			add("a batch stream cannot be combined with checkpointing")
		}
	case c.Faults && !c.Plugged:
		add("fault plan requires plugged middleware (native execution has no middleware to fault)")
	}
	return errs
}

// newRunner builds an idle runner over a resolved plan.
func newRunner(p *plan) *runner {
	cfg, g := p.cfg, p.cfg.Graph
	r := &runner{
		plan: p, g: g, alg: cfg.Alg,
		cl: cluster.New(cfg.Nodes, p.net),
		ctx: &template.Context{
			NumVertices: g.NumVertices(),
			OutDeg:      func(v graph.VertexID) int { return g.OutDegree(v) },
			InDeg:       func(v graph.VertexID) int { return g.InDegree(v) },
		},
	}
	if len(cfg.Faults) > 0 {
		r.faultsAt = make(map[int][]Fault)
		for _, f := range cfg.Faults {
			r.faultsAt[f.Superstep] = append(r.faultsAt[f.Superstep], f)
		}
	}
	return r
}

type runner struct {
	*plan
	g   *graph.Graph
	alg template.Algorithm
	cl  *cluster.Cluster
	ctx *template.Context

	attrs  []float64 // authoritative state (the upper system's data plane)
	active []bool

	agents []*gxplug.Agent
	// stats is each agent's counts summed over the supersteps so far
	// (takeStats), plus Connect's DeviceInit.
	stats []gxplug.Stats

	activeFn func(graph.VertexID) bool

	// Reusable per-superstep buffers, one of each per node: the GenResults
	// (the agents' own when plugged) and the inboxes. A GAS scatter leaves
	// them for the next round's gather with pending set; nothing resets
	// them before that gather has consumed them (see genPhase).
	results []*gxplug.GenResult
	inbox   []*gxplug.MsgBuf
	pending bool
	volBuf  [][]int64

	// Native-executor scratch, per node: apply-phase flag buffers, the
	// MSGGen scratch row, and a replayed gen's per-source messages and
	// states (gatherCone; grown on the node's first replayed gen).
	natChanged [][]bool
	natWrote   [][]bool
	natBefore  [][]float64
	natMsg     [][]float64
	srcMsg     [][]float64
	srcState   [][]uint8

	// Per-node reduction scratch for the parallel merge/apply phase.
	changedPer []bool
	mirrorPer  [][]graph.VertexID
	// distributeMirrors' staging — the updated ids each replica holder is
	// sent, and one holder's rows at a time — and the global query queue
	// with the scratch buildQueryQueue fills it from, all reused.
	mirrorStage [][]graph.VertexID
	mirrorRows  []float64
	query       *synccache.QueryQueue
	queryIDs    []graph.VertexID

	skipped int

	// Set by runStream only: batch is the boundary this runner executes,
	// traceRec (when non-nil) accumulates its trajectory, and inc (when
	// non-nil) replays the previous boundary's.
	batch    int
	traceRec *trace
	inc      *incState

	// faultsAt indexes the fault plan by superstep (nil without one).
	faultsAt map[int][]Fault
	// pre, when non-nil, is checkpointed state setup preloads before
	// agents connect — priming must ship checkpointed values.
	pre *CheckpointState

	// Observer bookkeeping, maintained only when cfg.Observer != nil.
	obsMsgs    int64
	obsBytes   int64
	obsMirrors int
	obsFaults  int
	// obsCkpt accumulates checkpoint makespan cost (set even without an
	// observer — it is a plain store, cheaper than gating).
	obsCkpt time.Duration
}

// upperSystem implements gxplug.Upper for every node of a run: batch
// transfers against the engine's authoritative attribute array, priced by
// the engine's boundary model.
type upperSystem struct{ r *runner }

func (u upperSystem) BoundaryCost(bytes int64) time.Duration {
	return u.r.cfg.Spec.boundaryCost(float64(bytes))
}

func (u upperSystem) FetchAttrs(ids []graph.VertexID, dst []float64) {
	w := u.r.aw
	for i, id := range ids {
		copy(dst[i*w:(i+1)*w], u.r.attrs[int(id)*w:(int(id)+1)*w])
	}
}

func (u upperSystem) PushAttrs(ids []graph.VertexID, rows []float64) {
	w := u.r.aw
	for i, id := range ids {
		copy(u.r.attrs[int(id)*w:(int(id)+1)*w], rows[i*w:(i+1)*w])
	}
}

func (r *runner) run() (*Result, error) {
	defer r.disconnect()
	if err := r.setup(); err != nil {
		return nil, err
	}

	iterations, err := r.loopFrom(0)
	if err != nil {
		return nil, err
	}
	return r.finish(iterations), nil
}

// disconnect stops every agent's daemons. run and resume defer it around
// setup and everything after, so it happens however the run ends — a later
// agent failing to connect, converged, failed or panicking (an observer is
// user code): a daemon left behind stays blocked in Msgrcv, holding its
// segments and queues. Disconnect is a no-op on an agent that is not
// connected; finish's goes first, to flush.
func (r *runner) disconnect() {
	for _, a := range r.agents {
		a.Disconnect()
	}
}

// finish disconnects agents and assembles the Result.
func (r *runner) finish(iterations int) *Result {
	res := &Result{
		Attrs:        r.attrs,
		Iterations:   iterations,
		SkippedSyncs: r.skipped,
		Cluster:      r.cl,
	}
	if r.agents != nil {
		r.disconnect() // flushes dirty state into r.attrs
		res.AgentStats = r.stats
	}
	res.Time = r.cl.MaxTime()
	for _, nd := range r.cl.Nodes() {
		res.MiddlewareTime += nd.Bucket(bucketMiddleware)
		res.UpperTime += nd.Bucket(bucketUpper)
	}
	return res
}

// setup initializes authoritative state, reusable buffers, and (when
// plugged) the per-node agents.
func (r *runner) setup() error {
	// Initialize authoritative state.
	n := r.g.NumVertices()
	r.attrs = make([]float64, n*r.aw)
	for v := 0; v < n; v++ {
		r.alg.Init(r.ctx, graph.VertexID(v), r.attrs[v*r.aw:(v+1)*r.aw])
	}
	r.active = template.InitialFrontier(r.alg, n)
	r.activeFn = func(v graph.VertexID) bool { return r.active[v] }
	if r.pre != nil {
		copy(r.attrs, r.pre.Attrs)
		copy(r.active, r.pre.Active)
	}
	m := r.cfg.Nodes
	r.volBuf = zeroVol(m)
	r.results = make([]*gxplug.GenResult, m)
	r.natChanged = make([][]bool, m)
	r.natWrote = make([][]bool, m)
	r.natBefore = make([][]float64, m)
	r.changedPer = make([]bool, m)
	r.mirrorPer = make([][]graph.VertexID, m)
	r.mirrorStage = make([][]graph.VertexID, m)
	r.natMsg = make([][]float64, m)
	r.srcMsg, r.srcState = make([][]float64, m), make([][]uint8, m)
	for j := 0; j < m; j++ {
		nM := len(r.part.Parts[j].Masters)
		r.natChanged[j] = make([]bool, nM)
		r.natWrote[j] = make([]bool, nM)
		r.natBefore[j] = make([]float64, r.aw)
		r.natMsg[j] = make([]float64, r.mw)
	}

	// Stand up agents if the middleware is plugged in.
	if r.plug != nil {
		r.agents = make([]*gxplug.Agent, 0, r.cfg.Nodes)
		r.stats = make([]gxplug.Stats, r.cfg.Nodes)
		r.query = synccache.NewQueryQueue()
		upper := upperSystem{r}
		for j, opts := range r.plug {
			a := gxplug.NewAgent(r.cl.Node(j), r.part, r.alg, r.ctx, upper, opts)
			r.agents = append(r.agents, a)
			if err := a.Connect(); err != nil {
				return err
			}
			// Connect's initial download is setup, not superstep work:
			// only its device initialization is kept.
			r.stats[j].DeviceInit = a.TakeStats().DeviceInit
		}
	}
	return nil
}

// anyActive reports whether any vertex is active.
func (r *runner) anyActive() bool {
	for _, a := range r.active {
		if a {
			return true
		}
	}
	return false
}

// frontierSize counts active vertices. Only the observer pays for it.
func (r *runner) frontierSize() int {
	n := 0
	for _, a := range r.active {
		if a {
			n++
		}
	}
	return n
}

// loopFrom drives iterations in the model's API order until
// quiescence, starting at superstep `start` (0 for a fresh run; a
// checkpoint's Iteration when resuming, with the GAS scatter replayed).
func (r *runner) loopFrom(start int) (int, error) {
	hints := r.alg.Hints()
	iter := start
	obs := r.cfg.Observer

	for {
		if r.maxIter > 0 && iter >= r.maxIter {
			break
		}
		if iter == 0 && !r.anyActive() && !hints.GenAll && !hints.ApplyAll {
			break
		}
		r.ctx.Iteration = iter

		var frontier, skippedBefore int
		if obs != nil {
			frontier = r.frontierSize()
			skippedBefore = r.skipped
			r.obsMsgs, r.obsBytes, r.obsMirrors = 0, 0, 0
			r.obsFaults, r.obsCkpt = 0, 0
		}
		if r.faultsAt != nil {
			for _, f := range r.faultsAt[iter] {
				r.armFault(f)
				if obs != nil {
					r.obsFaults++
				}
			}
		}

		var changedAny bool
		var err error
		switch r.cfg.Spec.Model {
		case GAS:
			changedAny, err = r.iterateGAS()
		default:
			changedAny, err = r.iterateBSP()
		}
		if err != nil {
			var inj *gxplug.InjectedFaultError
			if errors.As(err, &inj) {
				err = &FaultError{Kind: inj.Kind, Node: inj.Node, Superstep: iter, Err: err}
			}
			return iter, err
		}
		if r.traceRec != nil {
			r.traceRec.record(r.attrs, r.active)
		}
		iter++
		if r.cfg.CheckpointEvery > 0 && iter%r.cfg.CheckpointEvery == 0 {
			if err := r.checkpoint(iter, changedAny); err != nil {
				return iter, err
			}
		}
		if obs != nil {
			obs(r.superstepInfo(iter-1, frontier, skippedBefore, changedAny))
		} else {
			r.takeStats(nil)
		}
		if !changedAny {
			break
		}
	}
	return iter, nil
}

// superstepInfo assembles the observer report for the superstep that just
// finished, taking the agents' counts into it.
func (r *runner) superstepInfo(iter, frontier, skippedBefore int, changed bool) SuperstepInfo {
	info := SuperstepInfo{
		Iteration:      iter,
		Batch:          r.batch,
		Frontier:       frontier,
		Messages:       r.obsMsgs,
		MessageBytes:   r.obsBytes,
		MirrorUpdates:  r.obsMirrors,
		SkippedSync:    r.skipped > skippedBefore,
		FaultsInjected: r.obsFaults,
		CheckpointTime: r.obsCkpt,
		Changed:        changed,
		Makespan:       r.cl.MaxTime(),
	}
	r.takeStats(&info)
	for _, nd := range r.cl.Nodes() {
		info.UpperTime += nd.Bucket(bucketUpper)
		info.MiddlewareTime += nd.Bucket(bucketMiddleware)
	}
	return info
}

// takeStats ends a superstep's counting: it adds each agent's counts since
// the previous take into the node's total and, when info is non-nil, into
// the superstep's report. Every count of a run is taken here or discarded
// (setup, resume), so the reports sum to Result.AgentStats.
func (r *runner) takeStats(info *SuperstepInfo) {
	for j, a := range r.agents {
		s := a.TakeStats()
		r.stats[j].Add(s)
		if info != nil {
			info.CacheHits += s.CacheHits
			info.CacheMisses += s.CacheMisses
			info.CacheEvictions += s.CacheEvictions
			info.CacheDirtySpills += s.DirtySpills
			info.FaultRetries += s.StallRetries
		}
	}
}

// nextInbox resets the one inbox set (one MsgBuf per node, rows over that
// node's masters). One set suffices for the reason one GenResult per node
// does (see genPhase): a GAS scatter's inbox is merged by the next round's
// gather before the following scatter resets it.
func (r *runner) nextInbox() {
	if r.inbox == nil {
		r.inbox = make([]*gxplug.MsgBuf, r.cfg.Nodes)
		for j := range r.inbox {
			r.inbox[j] = gxplug.NewMsgBuf(r.alg, len(r.part.Parts[j].Masters))
		}
		return
	}
	for _, in := range r.inbox {
		in.Reset()
	}
}

// resetVol zeroes and returns the reusable exchange-volume matrix.
func (r *runner) resetVol() [][]int64 {
	for _, row := range r.volBuf {
		for j := range row {
			row[j] = 0
		}
	}
	return r.volBuf
}
