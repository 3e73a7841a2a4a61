// Command gxrun executes graph workloads end-to-end and reports timing,
// iteration counts and optimization statistics. Single runs are
// described either by flags or by a declarative scenario file, never
// both (a per-field flag beside -scenario is an error); both paths build
// the same gx.Scenario, so they produce bit-identical results. A suite file batches many named scenarios into one
// invocation.
//
//	gxrun -engine powergraph -algo pagerank -dataset orkut -nodes 4 -gpus 2
//	gxrun -engine graphx -algo sssp -dataset wrn -nodes 4 -accel cpu
//	gxrun -scenario testdata/pagerank-pg-4n.json
//	gxrun -algo sssp -dataset wrn -progress      # one line per superstep
//	gxrun -algo pagerank -cachecap 64            # bounded LRU sync cache
//	gxrun -algo pagerank -dataset file:twitter.gxsnap -nodes 4
//	gxrun -suite testdata/suite-pagerank-mix.json
//	gxrun -suite suite.json -pool 8              # bounded run concurrency
//	gxrun -suite suite.json -plan lpt            # cost-model LPT dispatch
//	gxrun -scenario crashy.json -checkpoint ckpt # checkpoint every superstep
//	gxrun -scenario crashy.json -checkpoint ckpt -resume
//	gxrun -remote 127.0.0.1:8080 -suite suite.json
//	gxrun -suite suite.json -manifest datasets.json
//	gxrun -scenario dynamic.json -batches       # per-batch convergence table
//
// Alongside registered generator names, -dataset (and the dataset field
// of scenario/suite JSON) accepts the `file:` kind: file:PATH sniffs
// the format, file+snapshot:PATH reads a binary CSR snapshot written by
// `gxgen -export` / `gxgen -convert`, and file+edgelist:PATH parses a
// SNAP-style edge list or weighted TSV with deterministic vertex
// relabeling. Snapshot-backed runs are bit-identical to generating the
// same graph in process; -scale/-seed do not apply to files. Suites
// load each distinct file once per content digest, exactly like
// generated triples.
//
// -suite executes every entry of a suite file concurrently on a bounded
// pool (-pool, default GOMAXPROCS), loading each distinct (dataset,
// scale, seed) exactly once through a shared dataset/partition cache.
// Per-entry reports stream in suite order as entries finish, followed by
// a summary table and the cache's load/hit accounting; output is
// bit-identical at every pool size. With -progress, per-superstep lines
// carry their entry name (lines of different entries interleave in
// completion order when the pool is wider than one).
//
// -plan selects the order suite entries are dispatched onto the pool:
// "file" (the default) or "lpt", which prices every entry with the
// calibrated cost model — a dry pass over graph stats, no superstep
// executed — and dispatches longest-predicted-first. The schedule and
// the predicted makespan print before the run. Dispatch order changes
// wall-clock time only: per-entry reports, results and virtual times
// are bit-identical to file order at every pool size (the closing
// dataset-cache line differs, since the planner's dry pass warms the
// cache the run then hits).
//
// -cachecap bounds each agent's synchronization cache to that many rows
// (0 = the node's full vertex table); it models memory-constrained
// agents and changes boundary traffic, never results. Unknown
// -engine/-algo/-dataset/-accel values fail with the list of registered
// names; gx.Register* extends those lists.
//
// Fault tolerance: a scenario (or suite entry) may carry a "faults"
// plan injecting middleware faults — daemon-crash, msg-stall, accel-oom
// — at fixed (node, superstep) points. Recoverable faults are absorbed
// by a deterministic retry schedule charged to virtual time; fatal ones
// end the run with a typed error (suite reports tag each failed entry
// with its class: fault, validation, io or run). -checkpoint DIR saves
// a consistent cut of the run to DIR/checkpoint.gxsnap every -every
// supersteps (atomic overwrite, snapshot-v2 format); after a crash,
// rerunning with -resume continues from the saved cut and finishes with
// the exact final attributes and virtual makespan of an uninterrupted
// run. The simulated checkpoint cost is part of the virtual clock, so
// checkpointed runs are comparable with each other, not with
// checkpoint-free runs.
//
// Dynamic graphs: a scenario may carry a "batches" spec — timestamped
// edge deltas, inline or as a `file+batches:stream.gxb` reference — and
// the run then re-executes the algorithm at every batch boundary,
// incrementally by default (bit-identical to from-scratch, per the
// conformance matrix) or from scratch with "mode": "scratch" — which
// every algorithm supports; incremental replay needs the algorithm's
// opt-in (pagerank, cc), and a scenario without it fails validation
// before any superstep, naming the mode that works. The
// summary reports the totals across boundaries; -batches adds a
// per-boundary convergence table (delta size, dirty cone, supersteps,
// charged apply cost, attrs digest). Batch streams are synthesized or
// converted by `gxgen -batches`.
//
// -remote ADDR submits -scenario/-suite to a gxd daemon instead of
// running locally: the file is POSTed to /v1/submit and the NDJSON
// event stream fed to the one suite renderer a local -suite run uses, so
// against a fresh daemon the output is byte-identical. Because runs are
// bit-deterministic, the daemon serves resubmitted scenarios from its
// digest-keyed result cache with zero engine supersteps — and the
// report still matches. Per-run flags, -pool (the server's knob) and
// checkpointing are local-only and conflict with -remote.
//
// -manifest FILE maps logical dataset names to `#sha256=`-pinned
// `file:` references (a gx.Manifest); references are resolved before
// validation, locally or client-side before a remote submit, so
// scenario files can name datasets logically instead of by host path.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"gxplug/gx"
	"gxplug/internal/serve"
)

// errFlagParse marks flag-parsing failures the FlagSet has already
// reported to stderr, so main does not print them twice.
var errFlagParse = errors.New("gxrun: bad flags")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errFlagParse):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable entry point: parse args, build one gx.Scenario
// (from a file or from flags), execute it, and print the report.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gxrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath = fs.String("scenario", "", "JSON scenario file (excludes the per-field flags)")
		suitePath    = fs.String("suite", "", "JSON suite file: run every entry (excludes -scenario and the per-field flags)")
		pool         = fs.Int("pool", 0, "max suite entries running concurrently (0 = GOMAXPROCS); results are identical at every size")
		planName     = fs.String("plan", "", "suite dispatch order: file | lpt; lpt runs longest-predicted-first off the cost model and prints the schedule (results are identical under every plan)")
		engineName   = fs.String("engine", "powergraph", "engine: "+strings.Join(gx.Engines(), " | "))
		algoName     = fs.String("algo", "pagerank", "algorithm: "+strings.Join(gx.Algorithms(), " | "))
		dataset      = fs.String("dataset", "orkut", "dataset: "+strings.Join(gx.Datasets(), " | ")+" | file[+snapshot|+edgelist]:PATH")
		scale        = fs.Int64("scale", gx.DefaultScale, "dataset scale divisor")
		seed         = fs.Int64("seed", gx.DefaultSeed, "generator seed")
		nodes        = fs.Int("nodes", 4, "distributed nodes")
		accel        = fs.String("accel", "gpu", "accelerator profile: "+strings.Join(gx.Accelerators(), " | "))
		gpus         = fs.Int("gpus", 1, "GPU daemons per node when -accel gpu")
		maxIter      = fs.Int("maxiter", 0, "iteration cap (0 = algorithm default)")
		cacheCap     = fs.Int("cachecap", 0, "synchronization cache capacity in rows per agent (0 = full vertex table; needs caching on)")
		k            = fs.Int("k", 0, "k for -algo kcore / hop bound for -algo bfs (0 = default)")
		network      = fs.String("net", gx.DefaultNetwork, "network: "+strings.Join(gx.Networks(), " | "))
		noOpt        = fs.Bool("no-opt", false, "disable pipeline/caching/skipping optimizations")
		progress     = fs.Bool("progress", false, "print one line per superstep (live observer)")
		ckptDir      = fs.String("checkpoint", "", "directory for checkpoint.gxsnap: save a consistent cut of the run (single runs)")
		ckptEvery    = fs.Int("every", 1, "checkpoint interval in supersteps (with -checkpoint)")
		resume       = fs.Bool("resume", false, "continue from the cut in -checkpoint instead of starting fresh")
		remoteAddr   = fs.String("remote", "", "gxd daemon address: submit -scenario/-suite there instead of running locally")
		manifestPath = fs.String("manifest", "", "JSON dataset manifest: logical names -> pinned file: references, resolved before validation")
		batchTable   = fs.Bool("batches", false, "print the per-batch convergence table (requires a -scenario with a batches spec)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlagParse // the FlagSet already printed the details
	}

	// The flags the command line set, in Visit's lexical order: every
	// conflict rule below is a question about this one set. setBesides
	// lists the set flags outside allowed, as "-a, -b".
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	setBesides := func(allowed ...string) string {
		var out []string
		for _, name := range set {
			if !slices.Contains(allowed, name) {
				out = append(out, "-"+name)
			}
		}
		return strings.Join(out, ", ")
	}

	// A zero gx.Manifest resolves nothing, so the no-flag path is free.
	var manifest gx.Manifest
	if *manifestPath != "" {
		var err error
		if manifest, err = gx.LoadManifest(*manifestPath); err != nil {
			return err
		}
	}

	if *remoteAddr != "" {
		// Remote runs are declarative by construction: the daemon runs
		// exactly what a file describes, so per-run flags (and local-only
		// machinery like checkpoints or -pool, which belongs to the
		// server) would be silently dead — all loud errors.
		if *suitePath == "" && *scenarioPath == "" {
			return errors.New("gxrun: -remote requires -scenario or -suite (remote runs are described by files)")
		}
		if c := setBesides("remote", "suite", "scenario", "progress", "manifest"); c != "" {
			return fmt.Errorf("gxrun: -remote cannot be combined with %s (the daemon runs the file as written)", c)
		}
		return runRemote(*remoteAddr, *scenarioPath, *suitePath, manifest, *progress, stdout)
	}

	if *suitePath != "" {
		// A suite file fully describes its runs: every per-run flag set
		// alongside -suite would be silently dead, so all of them are
		// loud errors (-pool and -progress configure the suite itself).
		if c := setBesides("suite", "pool", "plan", "progress", "manifest"); c != "" {
			return fmt.Errorf("gxrun: -suite cannot be combined with %s (suite entries carry their own scenarios)", c)
		}
		return runSuite(*suitePath, *pool, gx.Plan(*planName), manifest, *progress, stdout)
	}
	// The mirror-image hole: -pool and -plan configure suite execution
	// only, so setting either without -suite would be silently dead.
	if slices.Contains(set, "pool") {
		return errors.New("gxrun: -pool requires -suite (single runs have no entry concurrency)")
	}
	if slices.Contains(set, "plan") {
		return errors.New("gxrun: -plan requires -suite (single runs have no dispatch order)")
	}
	// Likewise -every and -resume qualify -checkpoint and are dead without it.
	if *ckptDir == "" {
		if slices.Contains(set, "every") {
			return errors.New("gxrun: -every requires -checkpoint")
		}
		if *resume {
			return errors.New("gxrun: -resume requires -checkpoint")
		}
	}

	var s gx.Scenario
	if *scenarioPath != "" {
		// A scenario file fully describes its run: every per-field flag set
		// alongside -scenario would be silently dead, so all of them are
		// loud errors (the rest say how the run is watched or checkpointed).
		if c := setBesides("scenario", "progress", "checkpoint", "every", "resume", "manifest", "batches"); c != "" {
			return fmt.Errorf("gxrun: -scenario cannot be combined with %s (the scenario file carries its own fields)", c)
		}
		var err error
		if s, err = gx.LoadScenario(*scenarioPath); err != nil {
			return err
		}
	} else {
		s = gx.Scenario{
			Engine:        *engineName,
			Algorithm:     *algoName,
			Params:        gx.AlgoParams{K: *k},
			Dataset:       *dataset,
			Scale:         *scale,
			Seed:          *seed,
			Nodes:         *nodes,
			Accel:         *accel,
			GPUs:          *gpus,
			MaxIter:       *maxIter,
			CacheCapacity: *cacheCap,
			Network:       *network,
		}
		if *noOpt {
			s.Opt = gx.NoOptimizations()
		}
	}
	s = manifest.Resolve(s).WithDefaults()
	if err := s.Validate(); err != nil {
		return err
	}
	if *batchTable && s.Batches == nil {
		return errors.New("gxrun: -batches requires a -scenario with a batches spec (there is no flag syntax for batch streams)")
	}

	// Load the graph up front so its stats can be printed; gx.Run uses the
	// same loader, so handing the instance over changes nothing. A resumed
	// run instead takes the graph from the checkpoint file, which saved it
	// next to the state.
	ckptPath := filepath.Join(*ckptDir, "checkpoint.gxsnap")
	var (
		g    *gx.Graph
		from *gx.CheckpointState
		err  error
	)
	if *resume {
		if g, from, err = gx.LoadCheckpoint(ckptPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "resuming %s from superstep %d\n", ckptPath, from.Iteration)
	} else if g, err = gx.LoadDataset(s.Dataset, s.Scale, s.Seed); err != nil {
		return err
	}

	// One merged observer: the -progress stream and, when faults or
	// checkpoints are in play, the robustness totals for the report tail.
	var obsFns []func(gx.Superstep)
	opts := []gx.Option{gx.WithGraph(g)}
	if *progress {
		obsFns = append(obsFns, func(st gx.Superstep) {
			mark := " "
			if st.SkippedSync {
				mark = "s"
			}
			fmt.Fprintf(stdout, "  [%4d]%s frontier=%-9d msgs=%-9d mirrors=%-7d t=%v\n",
				st.Iteration, mark, st.Frontier, st.Messages, st.MirrorUpdates, st.Makespan)
		})
	}
	var rt robustnessTotals
	if len(s.Faults) > 0 || *ckptDir != "" {
		obsFns = append(obsFns, rt.add)
	}
	if len(obsFns) > 0 {
		obs := obsFns
		opts = append(opts, gx.WithObserver(func(st gx.Superstep) {
			for _, fn := range obs {
				fn(st)
			}
		}))
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		opts = append(opts, gx.WithCheckpoint(*ckptEvery, func(st *gx.CheckpointState) error {
			rt.saved++
			return gx.SaveCheckpoint(ckptPath, g, st)
		}))
	}

	var res *gx.Result
	if *resume {
		res, err = gx.Resume(s, from, opts...)
	} else {
		res, err = gx.Run(s, opts...)
	}
	if err != nil {
		if class := gx.FailureClass(err); class == gx.ClassFault {
			return fmt.Errorf("gxrun: run lost to injected fault: %w", err)
		}
		return err
	}
	report(stdout, s, g, res)
	if *batchTable {
		renderBatches(stdout, res.Batches)
	}
	if len(s.Faults) > 0 {
		fmt.Fprintf(stdout, "  faults      : %d injected, %d stall retries absorbed\n", rt.faults, rt.retries)
	}
	if *ckptDir != "" {
		fmt.Fprintf(stdout, "  checkpoint  : %d saved to %s, %v virtual cost\n", rt.saved, ckptPath, rt.ckptTime)
	}
	return nil
}

// robustnessTotals aggregates the fault/checkpoint observer fields over
// a single run for the report tail.
type robustnessTotals struct {
	faults   int
	retries  int64
	saved    int
	ckptTime time.Duration
}

func (rt *robustnessTotals) add(st gx.Superstep) {
	rt.faults += st.FaultsInjected
	rt.retries += st.FaultRetries
	rt.ckptTime += st.CheckpointTime
}

// runSuite executes a suite file on a bounded pool, streaming per-entry
// reports in suite order and closing with a summary table plus the
// dataset-cache accounting. Everything printed is a deterministic
// function of the suite file, so output is bit-identical at every pool
// size.
func runSuite(path string, pool int, plan gx.Plan, manifest gx.Manifest, progress bool, stdout io.Writer) error {
	suite, err := gx.LoadSuite(path)
	if err != nil {
		return err
	}
	suite = manifest.ResolveSuite(suite).WithDefaults()
	if err := suite.Validate(); err != nil {
		return err
	}

	// The plan block renders ahead of the suite header so the suite
	// report proper stays a contiguous block, comparable line-for-line
	// with an unplanned run.
	var planOpts []gx.SuiteOption
	if plan != "" {
		if plan != gx.FileOrder && plan != gx.LPT {
			return fmt.Errorf("gxrun: unknown -plan %q (want %q or %q)", plan, gx.FileOrder, gx.LPT)
		}
		// The planner shares the suite's dataset cache: its dry pass loads
		// each graph/partitioning once and the run reuses the instances,
		// so planning costs no duplicate work (the closing cache line
		// reports the planner's loads as extra hits).
		cache := gx.NewDatasetCache()
		planner := gx.NewPlanner(cache)
		sp, err := planner.PlanSuite(suite, pool)
		if err != nil {
			return err
		}
		renderPlan(stdout, plan, suite, sp)
		planOpts = []gx.SuiteOption{gx.WithCache(cache), gx.WithPlanner(planner), gx.WithPlan(plan)}
	}

	return renderSuite(stdout, suite, path, progress, func(entry func(serve.EntryReport), step func(string, gx.Superstep)) ([]serve.EntryReport, gx.CacheStats, error) {
		opts := append(planOpts, gx.WithEntryDone(func(er gx.EntryResult) { entry(serve.ReportOf(er)) }))
		if pool != 0 { // 0 keeps RunSuite's GOMAXPROCS default; negatives surface its validation error
			opts = append(opts, gx.WithPool(pool))
		}
		if step != nil {
			opts = append(opts, gx.WithSuiteObserver(step))
		}
		res, err := gx.RunSuite(suite, opts...)
		if err != nil {
			return nil, gx.CacheStats{}, err
		}
		reps := make([]serve.EntryReport, len(res.Entries))
		for i, er := range res.Entries {
			reps[i] = serve.ReportOf(er)
		}
		return reps, res.Cache, nil
	})
}

// suiteFeed executes a suite, handing each finished entry's report to
// entry in suite order and — when step is non-nil — each superstep to
// step, and returns the final per-entry reports and cache accounting.
type suiteFeed func(entry func(serve.EntryReport), step func(string, gx.Superstep)) ([]serve.EntryReport, gx.CacheStats, error)

// renderSuite prints a suite run's whole report — header, per-entry
// reports in suite order as they finish, summary table, cache
// accounting — and turns failed entries into the exit error. run
// executes the suite and feeds it: gx callbacks locally, stream events
// remotely (step is nil without -progress). One renderer for both is
// what makes a remote run's report byte-identical to the local one.
func renderSuite(w io.Writer, suite gx.Suite, path string, progress bool, run suiteFeed) error {
	name := suite.Name
	if name == "" {
		name = path
	}
	n := len(suite.Entries)
	fmt.Fprintf(w, "suite %s: %d entries\n", name, n)

	printed := 0
	entry := func(rep serve.EntryReport) {
		printed++
		serve.RenderEntry(w, printed, n, rep)
	}
	var step func(string, gx.Superstep)
	if progress {
		step = func(entry string, st gx.Superstep) {
			mark := " "
			if st.SkippedSync {
				mark = "s"
			}
			fmt.Fprintf(w, "  %s [%4d]%s frontier=%-9d msgs=%-9d t=%v\n",
				entry, st.Iteration, mark, st.Frontier, st.Messages, st.Makespan)
		}
	}
	reps, cache, err := run(entry, step)
	if err != nil {
		return err
	}
	serve.RenderSuiteSummary(w, reps, cache)
	failed := 0
	for _, rep := range reps {
		if rep.Err != "" {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("gxrun: %d of %d suite entries failed", failed, n)
	}
	return nil
}

// renderPlan prints the cost-model schedule for a -plan suite run: the
// per-entry predictions in dispatch order, then the predicted pool
// makespan. Everything here is a deterministic function of the suite
// file (virtual durations from the calibrated model — no wall clock).
func renderPlan(w io.Writer, plan gx.Plan, suite gx.Suite, sp *gx.SuitePlan) {
	fmt.Fprintf(w, "plan %s: %d entries priced by the cost model\n", plan, len(sp.Entries))
	order := sp.Order
	if plan != gx.LPT {
		order = nil
		for i := range sp.Entries {
			order = append(order, i)
		}
	}
	for rank, idx := range order {
		ee := sp.Entries[idx]
		if ee.Err != "" {
			fmt.Fprintf(w, "  %2d. %-14s unpriced (%s)\n", rank+1, ee.Name, ee.Err)
			continue
		}
		fmt.Fprintf(w, "  %2d. %-14s predicted %v (%d supersteps, %.0f entities)\n",
			rank+1, ee.Name, ee.Makespan, ee.Supersteps, ee.Entities)
	}
	fmt.Fprintf(w, "  predicted: serial %v, makespan %v on pool %d\n",
		sp.PredictedSerial, sp.PredictedMakespan, sp.Pool)
}

// renderBatches prints the per-batch convergence table of a dynamic run:
// one row per batch boundary in stream order. Seq 0 is the seed graph
// (its delta columns are zero); each later row shows the delta size, the
// dirty cone the incremental replay started from, how many supersteps the
// boundary needed, its charged batch-application cost, and the boundary's
// full attrs digest — the value the conformance tests compare against a
// from-scratch run.
func renderBatches(w io.Writer, batches []gx.BatchResult) {
	fmt.Fprintf(w, "  batches     : %d boundaries\n", len(batches))
	fmt.Fprintf(w, "    %4s %6s %6s %7s %8s %12s %14s  %s\n",
		"seq", "adds", "drops", "dirty", "iter", "apply", "time", "digest")
	for _, b := range batches {
		fmt.Fprintf(w, "    %4d %6d %6d %7d %8d %12v %14v  %s\n",
			b.Seq, b.Adds, b.Removes, b.Dirty, b.Iterations, b.ApplyTime, b.Time, b.AttrsDigest)
	}
}

// report prints the run summary, ending in the result line that makes
// two runs comparable at a glance — the same one a suite entry reports.
func report(w io.Writer, s gx.Scenario, g *gx.Graph, res *gx.Result) {
	st := g.Stats()
	fmt.Fprintf(w, "%s on %s (%dV/%dE) over %d nodes, accel=%s\n",
		s.Algorithm, s.Dataset, st.Vertices, st.Edges, s.Nodes, s.Accel)
	fmt.Fprintf(w, "  time        : %v\n", res.Time)
	fmt.Fprintf(w, "  iterations  : %d (%d syncs skipped)\n", res.Iterations, res.SkippedSyncs)
	if res.AgentStats != nil {
		total := res.MiddlewareTime + res.UpperTime
		fmt.Fprintf(w, "  middleware  : %v (%.0f%% of node time)\n",
			res.MiddlewareTime, 100*float64(res.MiddlewareTime)/float64(total))
		var entities, blocks, hits, misses, evictions, spills int64
		for _, as := range res.AgentStats {
			entities += as.Entities
			blocks += as.Blocks
			hits += as.CacheHits
			misses += as.CacheMisses
			evictions += as.CacheEvictions
			spills += as.DirtySpills
		}
		fmt.Fprintf(w, "  entities    : %d in %d blocks\n", entities, blocks)
		if hits+misses > 0 {
			fmt.Fprintf(w, "  cache       : %.0f%% hit rate, %d evictions (%d dirty spills)\n",
				100*float64(hits)/float64(hits+misses), evictions, spills)
		}
	}
	sum := gx.Summarize(res, gx.EntryTotals{})
	fmt.Fprintf(w, "  result      : %d finite attribute values, sum %.4f\n", sum.FiniteAttrs, sum.AttrsSum)
}
