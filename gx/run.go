package gx

import (
	"slices"

	"gxplug/internal/engine"
)

// runConfig collects what the functional options override.
type runConfig struct {
	graph     *Graph
	plugs     []PlugOptions
	havePlug  bool
	part      *Partitioning
	obs       Observer
	ckptEvery int
	ckptSink  func(*CheckpointState) error
}

// Option refines a Scenario at the call site with values that have no
// declarative (JSON) form: live objects and hooks.
type Option func(*runConfig)

// WithGraph runs over a pre-built graph instead of loading the
// scenario's dataset (the Dataset/Scale/Seed fields are not consulted).
func WithGraph(g *Graph) Option { return func(rc *runConfig) { rc.graph = g } }

// WithPlug supplies explicit per-node middleware options instead of the
// scenario's accelerator profile: one entry applies to every node, n
// entries configure n nodes individually. The scenario's Accel, GPUs,
// Mix and Opt fields are not consulted; its CacheCapacity, when set,
// still bounds every entry's cache. WithPlug() with no arguments forces
// native execution.
func WithPlug(plugs ...PlugOptions) Option {
	return func(rc *runConfig) { rc.plugs, rc.havePlug = plugs, true }
}

// WithPartitioning overrides the engine's default partitioner (used by
// the workload-balancing scenarios).
func WithPartitioning(p *Partitioning) Option { return func(rc *runConfig) { rc.part = p } }

// WithObserver attaches a per-superstep observer: frontier size, routed
// messages, per-bucket virtual time, synchronization-skip decisions. The
// hook streams progress without changing simulated time; a nil observer
// is free.
func WithObserver(obs Observer) Option { return func(rc *runConfig) { rc.obs = obs } }

// WithCheckpoint takes a consistent-cut checkpoint after every `every`
// completed supersteps and hands it to sink — typically
// [SaveCheckpoint], which persists it next to the graph as a
// snapshot-v2 file. The cut's simulated storage cost is charged to the
// virtual clock, identically in the original and any resumed run, so
// [Resume] reproduces the uninterrupted run bit for bit — bounded
// synchronization caches included: a cut empties every cache that
// evicts (see Scenario.CacheCapacity).
func WithCheckpoint(every int, sink func(*CheckpointState) error) Option {
	return func(rc *runConfig) { rc.ckptEvery, rc.ckptSink = every, sink }
}

// Run validates the scenario, resolves every registered name, builds the
// engine configuration and executes it. Options override individual
// pieces; everything else flows from the scenario, so a JSON file and a
// struct literal describe identical runs.
func Run(s Scenario, opts ...Option) (*Result, error) {
	cache := NewDatasetCache()
	// No other run can read this cache's stream boundaries, and a run
	// that builds its own holds two graph versions at a time, not all.
	cache.bounds = nil
	return run(s, cache, opts)
}

// run is Run loading the scenario's dataset and batch stream through
// cache: the executor hands its shared one down, a solo Run a private
// one, so there is one load path either way. Whatever the engine's one
// config resolution rejects — a batch stream under middleware, an
// algorithm that cannot replay incrementally — is a [ValidationError]
// too: nothing ran.
func run(s Scenario, cache *DatasetCache, opts []Option) (*Result, error) {
	cfg, err := prepare(s, cache, opts)
	if err != nil {
		return nil, err
	}
	return engine.Run(cfg)
}

// Resume continues a run from a checkpoint taken by [WithCheckpoint]
// under the same scenario (typically reloaded with [LoadCheckpoint],
// handing the checkpoint's graph back via [WithGraph]). The scenario's
// fault plan is not re-armed — the crash the checkpoint recovered from
// belongs to the previous incarnation — and the completed run is
// bit-identical, in final attributes and virtual makespan, to one that
// never stopped.
func Resume(s Scenario, st *CheckpointState, opts ...Option) (*Result, error) {
	cfg, err := prepare(s, NewDatasetCache(), opts)
	if err != nil {
		return nil, err
	}
	return engine.Resume(cfg, st)
}

// prepare validates the scenario (wrapping rejections in
// [ValidationError]) and maps it plus the options onto the engine
// configuration, loading the dataset (unless [WithGraph] supplies it)
// through cache.
func prepare(s Scenario, cache *DatasetCache, opts []Option) (engine.Config, error) {
	var rc runConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&rc)
		}
	}
	s = s.WithDefaults()
	// Accelerator profiles are resolved (and their factories invoked)
	// exactly once, in buildConfig; validation of everything else happens
	// up front so unrelated problems surface together.
	if err := s.validate(provided{graph: rc.graph != nil, plug: true}); err != nil {
		return engine.Config{}, &ValidationError{Err: err}
	}
	return buildConfig(s, cache, &rc)
}

// buildConfig maps a validated, defaults-applied scenario (plus option
// overrides) onto the engine configuration.
func buildConfig(s Scenario, cache *DatasetCache, rc *runConfig) (engine.Config, error) {
	eng, err := engineReg.lookup(s.Engine)
	if err != nil {
		return engine.Config{}, err
	}
	cfg := engine.Config{
		Spec:            eng.Spec(),
		Nodes:           s.Nodes,
		MaxIter:         s.MaxIter,
		Partitioning:    rc.part,
		Observer:        rc.obs,
		CheckpointEvery: rc.ckptEvery,
		CheckpointSink:  rc.ckptSink,
		Faults:          s.Faults,
	}

	g := rc.graph
	if g == nil {
		if g, err = cache.Graph(s.Dataset, s.Scale, s.Seed); err != nil {
			return engine.Config{}, err
		}
	}
	cfg.Graph = g

	if cfg.Alg, err = NewAlgorithm(s.Algorithm, s.Params, g.NumVertices()); err != nil {
		return engine.Config{}, err
	}

	plugs := rc.plugs
	if !rc.havePlug {
		if plugs, err = s.plugs(); err != nil {
			return engine.Config{}, err
		}
	}
	if s.CacheCapacity > 0 {
		// The bound applies to whichever plug list is in effect; clone so
		// a caller's WithPlug slice is never written.
		plugs = slices.Clone(plugs)
		for i := range plugs {
			plugs[i].CacheCapacity = s.CacheCapacity
		}
	}
	cfg.Plug = plugs

	if cfg.Net, err = networkReg.lookup(s.Network); err != nil {
		return engine.Config{}, err
	}

	if s.Batches != nil {
		batches, id, err := s.Batches.loadBatches(cache)
		if err != nil {
			return engine.Config{}, err
		}
		cfg.Stream = &engine.BatchStream{Batches: batches, Scratch: s.Batches.Mode == batchModeScratch}
		if cache.bounds != nil {
			// The boundaries come from cache, keyed by the base
			// partitioning: the engine default's, unless an option
			// overrides it.
			if cfg.Partitioning == nil {
				cfg.Partitioning = cache.partition(g, s.Engine, cfg.Spec, s.Nodes)
			}
			src := &boundarySource{
				c:       cache,
				key:     boundaryKey{g: g, part: cfg.Partitioning, stream: id, engine: s.Engine, nodes: s.Nodes},
				batches: batches,
				spec:    cfg.Spec,
			}
			cfg.Stream.Boundaries = src.boundary
		}
	}
	return cfg, nil
}
