// Package gx is the public API of this repository: a registry-driven,
// declarative surface for describing and executing accelerated
// distributed graph computations. Everything under internal/ is
// implementation; new workloads, sweeps, and services build against gx.
//
// A run is described by a [Scenario] — engine, algorithm and parameters,
// dataset and scale, node count, accelerator mix, network, cache
// capacity, and optimization toggles — which validates itself,
// round-trips through JSON (`gxrun -scenario file.json` and programmatic
// callers describe runs identically), and is executed by [Run]:
//
//	res, err := gx.Run(gx.Scenario{
//	    Engine:    "powergraph",
//	    Algorithm: "pagerank",
//	    Dataset:   "orkut",
//	    Scale:     2000,
//	    Nodes:     4,
//	    Accel:     "gpu",
//	})
//
// Every name a Scenario refers to resolves through a registry, and the
// registries are open: [RegisterEngine], [RegisterAlgorithm],
// [RegisterDataset] and [RegisterAccelerator] add entries that become
// addressable from scenario files and CLI flags without touching engine
// internals (the built-ins self-register the same way; see
// examples/custom-algorithm for a user-defined algorithm). Unknown names
// fail validation with the list of registered names.
//
// Alongside registered names, the Dataset field accepts the `file:`
// kind for real graphs on disk: "file:PATH" sniffs the format,
// "file+snapshot:PATH" reads a binary CSR snapshot (written by `gxgen
// -export` or `gxgen -convert`), and "file+edgelist:PATH" parses a
// SNAP-style edge list or weighted TSV with deterministic vertex
// relabeling (see examples/real-graph). Scale and Seed do not apply to
// a file and are ignored; validation checks the reference is
// well-formed and the path is a readable regular file. Running a
// snapshot is bit-identical to generating the same graph in process —
// and an order of magnitude faster to load, which is what suite
// cold-starts pay. Any file form may pin the expected content with
// "#sha256=HEX"; a swapped or bitrotted file then fails with a
// [DigestMismatchError] instead of silently changing results. The same
// reference grammar names batch streams ("file+batches:PATH", below),
// and every referenced file — graph or stream, in a suite, a daemon or a
// solo Run — loads through one path: a [DatasetCache] that digests the
// content once per visible change, verifies the pin, and parses once
// per distinct content.
//
// Functional options hand a run what a scenario cannot spell in JSON —
// live objects and hooks: [WithGraph], [WithPlug], [WithPartitioning],
// [WithCheckpoint], and [WithObserver], which attaches a per-superstep
// [Observer] — frontier size, routed messages, per-bucket virtual time,
// synchronization-skip decisions — for metrics streaming and live
// progress. A nil observer costs nothing. Everything with a declarative
// form (algorithm, iteration cap, network) is a scenario field only;
// custom algorithms and networks join by name through the registries.
//
// The scenario's cache_capacity field bounds each agent's LRU
// synchronization cache to a fixed number of attribute rows (0 sizes it
// to the node's vertex table — effectively unbounded), modelling
// memory-constrained agents. Bounding the cache changes boundary
// traffic, never results: dirty rows evicted mid-phase are spilled and
// uploaded at serialized phase boundaries, so bounded runs stay
// bit-identical to unbounded ones and deterministic under the parallel
// superstep executor. The observer reports per-superstep cache hits,
// misses, evictions, and dirty spills, making the hit-rate/capacity
// trade-off (Fig 11a-adjacent; `gxbench -exp cachecap`) observable.
//
// A [Suite] batches named scenarios into one JSON-round-tripping unit
// (`gxrun -suite file.json`), executed by [RunSuite] on a bounded
// concurrent pool ([WithPool]). Each distinct (dataset, scale, seed) —
// and each distinct file, keyed by path and content digest — is
// loaded exactly once and each graph partitioned once per (engine,
// nodes) through a shared [DatasetCache] — safe because graphs and
// partitionings are immutable — and concurrency is a wall-clock
// optimization only: a suite at any pool size is bit-identical to
// running its entries serially. Per-entry results stream in suite order
// via [WithEntryDone], per-superstep reports aggregate into
// [EntryTotals] (and fan out to [WithSuiteObserver]), and a failed entry
// records its error without aborting the batch. [WithCache] shares one
// cache across suites.
//
// Determinism makes results *servable*: because a run is a pure function
// of its scenario, [Scenario.Digest] — a canonical, versioned identity
// invariant under JSON field order, explicit defaults, and empty-vs-nil
// slices — soundly keys a [ResultCache], a bounded LRU of
// [ResultSummary] outcomes (attrs digest, report-line totals, virtual
// times). [WithResultCache] attaches one to RunSuite: a repeat entry is
// served from cache with zero engine supersteps ([EntryResult].CacheHit,
// nil Result), bit-identical to recomputing it. `file:` datasets fold
// their content digest into the key, so a rewritten file misses instead
// of serving the old graph's result; runs carrying functional options
// have no canonical form and bypass the cache by construction. This is
// the library core of the gxd serving daemon (cmd/gxd,
// internal/serve), whose thin client is `gxrun -remote` (see
// examples/serving). A [Manifest] maps logical dataset names to
// `#sha256=`-pinned file references, resolved before validation, so
// scenarios can say what a dataset is rather than where it lives.
//
// The same cost model the engines charge their virtual clocks with can
// be consulted before running anything: a [Planner] prices a scenario
// with a dry pass — datasets load through the shared [DatasetCache],
// but no superstep executes — returning a [CostEstimate] (predicted
// virtual makespan, superstep count, work volume), and
// [Planner.PlanSuite] prices a whole suite into a [SuitePlan]: per-entry
// estimates, an LPT (longest-predicted-first) dispatch order, and the
// predicted pool makespan. [WithPlan] ([LPT]) makes RunSuite dispatch in
// that order, which packs the worker pool tighter when entry costs are
// skewed; results, goldens, and [WithEntryDone] emission order stay
// bit-identical to file order at every pool size — a plan changes
// wall-clock packing, never output. A planner carrying [PlannerStats]
// refines itself from history: each finished entry records
// predicted-vs-actual makespan under the scenario's digest, repeat
// scenarios are priced from the recorded actuals, and novel ones are
// scaled by the accumulated ratio (`gxrun -suite file.json -plan lpt`
// prints the schedule; the gxd daemon prices submissions for cost-aware
// admission).
//
// Robustness is part of the same vocabulary. A scenario's Faults field
// schedules deterministic middleware faults ([FaultSpec]: daemon-crash,
// msg-stall, accel-oom at a fixed node and superstep); recoverable ones
// are absorbed by a bounded retry schedule charged to the virtual
// clock, fatal ones surface as a typed [FaultError], and [FailureClass]
// sorts any error into fault / validation / io / run (suite entries
// carry the class). [WithCheckpoint] takes a consistent cut of the run
// every N supersteps; [SaveCheckpoint] and [LoadCheckpoint] persist cut
// plus graph as one snapshot-v2 file, and [Resume] continues from a cut
// to the bit-identical final attributes and virtual makespan of an
// uninterrupted run (see examples/fault-tolerance and `gxrun
// -checkpoint`).
//
// Graphs need not stand still. A scenario's Batches field ([BatchSpec])
// turns one run into a sequence over an evolving graph: a stream of
// timestamped edge batches — inline [BatchDelta] values, or a
// `file+batches:PATH` stream file (binary `.gxb` from `gxgen -batches`,
// or a text delta list; gzip accepted, `#sha256=` pinnable and cached
// by content like any file reference) — applied one batch at a time, each producing a new
// immutable graph version and a fresh convergence. The default
// "incremental" mode replays the previous boundary's recorded
// trajectory over the dirty cone the batch touched; "scratch" mode
// recomputes every boundary from nothing. The two are bit-identical by
// contract — same attributes, digests, and iteration counts at every
// boundary — and differ only in virtual cost, with incremental never
// slower (BENCHMARK.json's engine.inc_* metrics record the gap).
// Incremental replay needs the algorithm's [Hints].Incremental opt-in
// (pagerank and cc have it); without it the scenario is rejected before
// any superstep with a [ValidationError] naming "mode": "scratch", which
// runs every algorithm. This package only describes the stream and
// loads it: the boundary loop, its charges and its rejections are the
// engine's, the same for [Run], suites and the [Planner]. Per-boundary
// reports accumulate in [Result].Batches ([BatchResult]: apply time, dirty-cone
// size, iterations, attrs digest; `gxrun -batches` tabulates them), the
// scenario digest covers the stream content so the result cache and gxd
// serve dynamic runs soundly, and the [Planner] prices batch boundaries
// into its estimates (see examples/dynamic-graphs and DESIGN.md
// "Dynamic graphs").
//
// Algorithms implement [Algorithm], the three-function GX-Plug template
// (MSGGen / MSGMerge / MSGApply) re-exported here so external code never
// imports internal packages. MSGGen writes an edge's one message into a
// row the executor owns and reports whether there is one, so generation
// allocates nothing. One optional declaration makes the gen kernel
// cheaper without changing a result: [Hints].SourceOnly states that the
// message depends on the source vertex alone — its id, attributes and
// [Context] degrees, never the destination or the edge weight — so both
// executors generate it once per source and merge it into each of the
// source's edges (PageRank, CC, LP, BFS and k-core declare it; SSSP, whose
// message is distance + weight, cannot). The sequential reference never
// reads the flag, which is what checks a declaration;
// examples/custom-algorithm declares it.
//
// A second declaration makes the merge cheaper the same way:
// [Hints].Merge names the operator MSGMerge computes. [MergeSum] promises
// acc[i] += msg[i] and [MergeMin] promises if msg[i] < acc[i] { acc[i] =
// msg[i] } (not math.Min, which differs on NaN and -0), per element and
// bit for bit; executors then fold messages in a typed loop and never
// call MSGMerge. PageRank and k-core declare MergeSum; CC, BFS and SSSP
// declare MergeMin; LP's histogram merge stays [MergeCustom], the zero
// value, which promises nothing. A type that embeds an algorithm and
// overrides MSGMerge must restate Merge in its own Hints, or it inherits
// a promise its MSGMerge does not keep. examples/custom-algorithm
// declares MergeSum.
//
// # Contributing
//
// The invariants the tests pin at runtime — deterministic results, the
// free nil observer, hardened decoders, fully charged middleware paths
// — are also enforced at compile time by the repository's own vet
// suite (cmd/gxlint; DESIGN.md "Static analysis"). Run `make lint`
// before sending a refactor: it runs stock `go vet` plus the gxlint
// analyzers, and `make ci` fails on any finding. Intentional
// exceptions are annotated in place with //gxlint:<check> <reason>.
package gx
