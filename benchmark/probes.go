package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gxplug/gx"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/gen/ingest"
	"gxplug/internal/graph"
	"gxplug/internal/harness"
	"gxplug/internal/serve"
	"gxplug/internal/shm"
)

// probe measures every layer from outside, by timing calls into its
// exported functions on inputs drawn from the four workloads (same
// seed, same sizes). Wall figures are collected as samples and reported
// as medians; counts and virtual-time ratios are exact.
type probe struct {
	cfg config
	tr  *tracer
	dir string
	chk *checker

	samples map[string][]float64
	values  map[string]float64
	jobs    int // span job numbers, counted down from -1 so they never collide with a workload's
}

func (p *probe) sample(name string, v float64) { p.samples[name] = append(p.samples[name], v) }

// timed runs fn inside a span and returns how long it took.
func (p *probe) timed(name string, job, parent int, fn func()) time.Duration {
	id := p.tr.begin(name, job, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	p.tr.end(id)
	return d
}

func (p *probe) nextJob() int { p.jobs--; return p.jobs }

// perOp times reps calls of fn in five batches and returns the median
// nanoseconds per call.
func (p *probe) perOp(fn func()) float64 {
	batch := max(p.cfg.size.probeReps/5, 1)
	var ns []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(batch))
	}
	return median(ns)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// run executes every probe and returns the workload-independent
// per-layer values.
func (p *probe) run() (map[string]float64, error) {
	for _, step := range []func() error{p.cold, p.static, p.dynamic, p.micro, p.serveHit, p.figure8} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	for name, s := range p.samples {
		p.values[name] = median(s)
	}
	return p.values, nil
}

// cold probes the layers cold-suite leans on: generation, snapshot and
// edge-list ingest, content digests, both partitioners, and the entry
// pool's speed-up on one cold 3-entry body.
func (p *probe) cold() error {
	scale := p.cfg.size.coldScale
	for i, d := range []gen.Dataset{gen.Orkut, gen.LiveJournal, gen.WRN, gen.Orkut} {
		job := p.nextJob()
		root := p.tr.begin("probe.cold", job, -1)
		var g *graph.Graph
		var err error
		d1 := p.timed("gen.load", job, root, func() { g, err = gen.Load(d, scale, p.cfg.seed+int64(i)) })
		if err != nil {
			return err
		}
		p.sample("gen.load_ms", ms(d1))
		p.sample("gen.medges_per_s", float64(g.NumEdges())/1e6/d1.Seconds())

		p.sample("graph.partition_edgecut_ms", ms(p.timed("graph.partition_edgecut", job, root, func() {
			graphx.Spec().Partition(g, nodes)
		})))
		var cut *graph.Partitioning
		p.sample("graph.partition_vertexcut_ms", ms(p.timed("graph.partition_vertexcut", job, root, func() {
			cut = powergraph.Spec().Partition(g, nodes)
		})))
		p.sample("graph.replication_factor", cut.ReplicationFactor())

		path := filepath.Join(p.dir, fmt.Sprintf("cold-%d", i))
		if i < 2 {
			if err := ingest.SaveFile(path, g); err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d2 := p.timed("ingest.snapshot_load", job, root, func() { _, err = ingest.LoadSnapshotFile(path) })
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			p.sample("ingest.snapshot_load_ms", ms(d2))
			p.sample("ingest.snapshot_mb_per_s", float64(st.Size())/1e6/d2.Seconds())
			p.sample("ingest.snapshot_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		} else {
			if err := writeEdgeList(path, g, i == 3); err != nil {
				return err
			}
			p.sample("ingest.edgelist_parse_ms", ms(p.timed("ingest.edgelist_parse", job, root, func() {
				_, err = ingest.ParseEdgeListFile(path)
			})))
			if err != nil {
				return err
			}
		}
		p.sample("ingest.file_digest_ms", ms(p.timed("ingest.file_digest", job, root, func() {
			_, _, err = ingest.FileDigests(path)
		})))
		if err != nil {
			return err
		}
		p.tr.end(root)
	}

	body := gx.Suite{Entries: coldEntries(string(gen.Orkut), scale, p.cfg.seed)}
	for rep := 0; rep < 3; rep++ {
		var wall [2]time.Duration
		for k, pool := range []int{1, runtime.GOMAXPROCS(0)} {
			var err error
			wall[k] = p.timed("gx.run_suite_cold", p.nextJob(), -1, func() {
				_, err = gx.RunSuite(body, gx.WithPool(pool))
			})
			if err != nil {
				return err
			}
		}
		p.sample("gx.suite_parallel_speedup", ratio(wall[0].Seconds(), wall[1].Seconds()))
	}
	return nil
}

// engineRun is one gx.Run observed from outside: wall times from the
// Observer's callback timestamps, allocation from MemStats, everything
// else from the result.
type engineRun struct {
	res      *gx.Result
	totals   gx.EntryTotals
	wall     time.Duration
	first    time.Duration   // runner set-up plus superstep 0
	steps    []time.Duration // supersteps 1..
	bounds   []time.Duration // per batch boundary ≥ 1, dynamic runs only
	mallocs  uint64
	bytes    uint64
	numEdges int64
}

// observe runs the scenario over a prepared graph and partitioning —
// what the suite executor does per entry — and records one span per
// superstep.
func (p *probe) observe(name string, s gx.Scenario, g *graph.Graph, part *graph.Partitioning) (*engineRun, error) {
	job := p.nextJob()
	root := p.tr.begin(name, job, -1)
	run := &engineRun{numEdges: g.NumEdges()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	last, boundaryEnd, batch := start, start, 0
	res, err := gx.Run(s, gx.WithGraph(g), gx.WithPartitioning(part), gx.WithObserver(func(st gx.Superstep) {
		now := time.Now()
		run.totals.Supersteps++
		run.totals.Messages += st.Messages
		run.totals.MessageBytes += st.MessageBytes
		if st.Batch != batch {
			if batch > 0 {
				run.bounds = append(run.bounds, last.Sub(boundaryEnd))
			}
			boundaryEnd, batch = last, st.Batch
		}
		if st.Iteration == 0 && st.Batch == 0 {
			run.first = now.Sub(start)
		} else if st.Iteration > 0 {
			run.steps = append(run.steps, now.Sub(last))
		}
		p.tr.add("engine.superstep", job, root, last, now)
		last = now
	}))
	run.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if batch > 0 {
		run.bounds = append(run.bounds, last.Sub(boundaryEnd))
	}
	run.res = res
	run.mallocs, run.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return run, nil
}

// atOneProc runs fn with GOMAXPROCS 1.
func atOneProc(fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return fn()
}

// static probes the native engine and the middleware on half of the
// scenario list the two warm workloads share (every engine, algorithm
// and dataset, alternating datasets), native and plugged side by side.
func (p *probe) static() error {
	cache := gx.NewDatasetCache()
	native := staticScenarios(p.cfg, "none")
	var nativeWall, pluggedWall []float64
	var virtNative, virtPlugged, virtNoOpt, upper, middleware float64
	var steps, messages, messageBytes, skipped, iterations float64
	var hits, misses, blocks, agentIters float64
	runs := 0
	for i, e := range native {
		if (i/2+i)%2 != 0 || p.cfg.size.slice > 0 && runs >= p.cfg.size.slice {
			continue
		}
		runs++
		g, err := cache.Graph(e.Dataset, e.Scale, e.Seed)
		if err != nil {
			return err
		}
		part, err := cache.Partitioning(g, e.Engine, e.Nodes)
		if err != nil {
			return err
		}
		for _, accel := range []string{"none", "gpu"} {
			s := e.Scenario
			s.Accel = accel
			prefix, wallSamples := "engine.native_", &nativeWall
			if accel == "gpu" {
				prefix, wallSamples = "gxplug.plugged_", &pluggedWall
			}
			run, err := p.observe(prefix+"run", s, g, part)
			if err != nil {
				return err
			}
			n := float64(run.totals.Supersteps)
			*wallSamples = append(*wallSamples, ms(run.wall))
			p.sample(prefix+"first_superstep_ms", ms(run.first))
			for _, d := range run.steps {
				p.sample(prefix+"superstep_ms", ms(d))
			}
			var serial time.Duration
			if err := atOneProc(func() error {
				start := time.Now()
				_, err := gx.Run(s, gx.WithGraph(g), gx.WithPartitioning(part))
				serial = time.Since(start)
				return err
			}); err != nil {
				return err
			}
			p.sample(prefix+"parallel_speedup", ratio(serial.Seconds(), run.wall.Seconds()))

			if accel == "none" {
				p.sample("engine.native_medges_per_s", float64(run.numEdges)*n/1e6/run.wall.Seconds())
				p.sample("engine.native_allocs_per_superstep", float64(run.mallocs)/n)
				steps += n
				messages += float64(run.totals.Messages)
				messageBytes += float64(run.totals.MessageBytes)
				virtNative += run.res.Time.Seconds()
				p.sample("gx.summarize_ms", ms(p.timed("gx.summarize", p.nextJob(), -1, func() {
					gx.Summarize(run.res, run.totals)
				})))
				continue
			}
			p.sample("gxplug.allocs_per_superstep", float64(run.mallocs)/n)
			p.sample("gxplug.alloc_mb_per_superstep", float64(run.bytes)/n/1e6)
			virtPlugged += run.res.Time.Seconds()
			upper += run.res.UpperTime.Seconds()
			middleware += run.res.MiddlewareTime.Seconds()
			skipped += float64(run.res.SkippedSyncs)
			iterations += float64(run.res.Iterations)
			for _, a := range run.res.AgentStats {
				hits += float64(a.CacheHits)
				misses += float64(a.CacheMisses)
				blocks += float64(a.Blocks)
				agentIters += float64(a.Iterations)
			}
			s.Opt = gx.NoOptimizations()
			naive, err := gx.Run(s, gx.WithGraph(g), gx.WithPartitioning(part))
			if err != nil {
				return err
			}
			virtNoOpt += naive.Time.Seconds()
		}
	}
	jobs := float64(runs)
	p.values["engine.supersteps_per_job"] = steps / jobs
	p.values["engine.messages_per_superstep"] = ratio(messages, steps)
	p.values["engine.message_mb_per_job"] = messageBytes / jobs / 1e6
	p.values["gxplug.plugged_over_native_wall"] = ratio(median(pluggedWall), median(nativeWall))
	p.values["gxplug.cache_hit_ratio"] = ratio(hits, hits+misses)
	p.values["gxplug.skipped_sync_ratio"] = ratio(skipped, iterations)
	p.values["gxplug.blocks_per_superstep"] = ratio(blocks, agentIters)
	p.values["gxplug.middleware_virtual_share"] = ratio(middleware, middleware+upper)
	p.values["gxplug.accel_ratio_virtual"] = ratio(virtNative, virtPlugged)
	p.values["gxplug.noopt_over_opt_virtual"] = ratio(virtNoOpt, virtPlugged)

	// What RunSuite adds around gx.Run for one warm entry — on a toy
	// graph and one superstep, so that the run itself does not drown the
	// difference — and what a warm dataset-cache lookup costs.
	entry := native[0]
	tiny := entry
	tiny.Scale, tiny.MaxIter = smokeSize.scale, 1
	g, err := cache.Graph(tiny.Dataset, tiny.Scale, tiny.Seed)
	if err != nil {
		return err
	}
	part, err := cache.Partitioning(g, tiny.Engine, tiny.Nodes)
	if err != nil {
		return err
	}
	direct := p.perOp(func() { gx.Run(tiny.Scenario, gx.WithGraph(g), gx.WithPartitioning(part)) })
	suite := p.perOp(func() { gx.RunSuite(gx.Suite{Entries: []gx.SuiteEntry{tiny}}, gx.WithCache(cache)) })
	p.values["gx.run_overhead_ms"] = (suite - direct) / 1e6
	p.values["gx.datasetcache_hit_us"] = p.perOp(func() {
		g, _ := cache.Graph(entry.Dataset, entry.Scale, entry.Seed)
		cache.Partitioning(g, entry.Engine, entry.Nodes)
	}) / 1e3
	return nil
}

// dynamic probes incremental replay: every layer call of a batch
// boundary on its own (stream load, ApplyBatch, re-partition,
// DirtySeed), then whole incremental and from-scratch runs of half of
// dynamic-inc's scenarios, split into boundaries by Superstep.Batch.
func (p *probe) dynamic() error {
	jobs, err := dynamicJobs(p.cfg, p.dir)
	if err != nil {
		return err
	}
	g0, err := gen.Load(gen.Orkut, p.cfg.size.scale, p.cfg.seed)
	if err != nil {
		return err
	}
	parts := gx.NewDatasetCache()
	var incVirtual, scratchVirtual, dirty, boundaries float64
	for i, job := range jobs {
		// Of the eight: one job per engine × algorithm, alternating stream sizes.
		if len(jobs) > 2 && i != 0 && i != 3 && i != 5 && i != 6 {
			continue
		}
		s := job.suite.Entries[0].Scenario
		// The engine's own partitioner, as the dynamic runner calls it.
		partition := func(g *graph.Graph) (part *graph.Partitioning) {
			part, err = parts.Partitioning(g, s.Engine, nodes)
			return part
		}
		part0 := partition(g0)
		if err != nil {
			return err
		}

		walk := p.nextJob()
		root := p.tr.begin("probe.boundary_layers", walk, -1)
		var batches []graph.EdgeBatch
		path := s.Batches.Stream[len("file+batches:"):]
		p.sample("ingest.batchstream_load_ms", ms(p.timed("ingest.batchstream_load", walk, root, func() {
			batches, err = ingest.LoadBatchStreamFile(path)
		})))
		if err != nil {
			return err
		}
		g, part := g0, part0
		for _, b := range batches {
			var ng *graph.Graph
			p.sample("graph.apply_batch_ms", ms(p.timed("graph.apply_batch", walk, root, func() { ng, err = g.ApplyBatch(b) })))
			if err != nil {
				return err
			}
			var npart *graph.Partitioning
			p.timed("graph.repartition", walk, root, func() { npart = partition(ng) })
			if err != nil {
				return err
			}
			p.sample("engine.dirty_seed_ms", ms(p.timed("engine.dirty_seed", walk, root, func() {
				engine.DirtySeed(g, ng, part, npart)
			})))
			g, part = ng, npart
		}
		p.tr.end(root)

		inc, err := p.observe("engine.incremental_run", s, g0, part0)
		if err != nil {
			return err
		}
		scratchMode(&s)
		scratch, err := p.observe("engine.scratch_run", s, g0, part0)
		if err != nil {
			return err
		}
		for _, d := range inc.bounds {
			p.sample("engine.inc_boundary_ms", ms(d))
		}
		for _, d := range scratch.bounds {
			p.sample("engine.scratch_boundary_ms", ms(d))
		}
		n := float64(len(inc.res.Batches))
		p.sample("engine.inc_allocs_per_boundary", float64(inc.mallocs)/n)
		p.sample("engine.inc_alloc_mb_per_boundary", float64(inc.bytes)/n/1e6)
		for b := 1; b < len(inc.res.Batches); b++ {
			incVirtual += inc.res.Batches[b].Time.Seconds()
			scratchVirtual += scratch.res.Batches[b].Time.Seconds()
			dirty += float64(inc.res.Batches[b].Dirty) / float64(g0.NumVertices())
			boundaries++
			p.chk.record("probe incremental vs scratch "+job.label,
				digestProblem(inc.res.Batches[b].AttrsDigest, scratch.res.Batches[b].AttrsDigest))
		}
	}
	p.values["engine.inc_over_scratch_wall"] = ratio(median(p.samples["engine.inc_boundary_ms"]), median(p.samples["engine.scratch_boundary_ms"]))
	p.values["engine.inc_over_scratch_virtual"] = ratio(incVirtual, scratchVirtual)
	p.values["engine.dirty_share"] = ratio(dirty, boundaries)
	return nil
}

func digestProblem(got, want string) string {
	if got != want {
		return "boundary digest " + got + ", scratch " + want
	}
	return ""
}

// micro probes the small fixed costs: a shm message round trip, scenario
// parsing and digesting, the file and result caches, and a server boot.
func (p *probe) micro() error {
	ipc := shm.NewIPC(shm.DefaultLimits())
	ping, err := ipc.Msgget(1, shm.Create)
	if err != nil {
		return err
	}
	pong, err := ipc.Msgget(2, shm.Create)
	if err != nil {
		return err
	}
	echoed := make(chan struct{})
	go func() { // the daemon side: echo until the queue is removed
		defer close(echoed)
		for {
			m, err := ping.Msgrcv(0, true)
			if err != nil || pong.Msgsnd(m.Type, m.Payload) != nil {
				return
			}
		}
	}()
	payload := make([]byte, 64)
	p.values["shm.msg_roundtrip_us"] = p.perOp(func() {
		if ping.Msgsnd(1, payload) == nil {
			pong.Msgrcv(1, true)
		}
	}) / 1e3
	ping.Remove()
	pong.Remove()
	<-echoed

	jobs, err := staticJobs(p.cfg, "none")
	if err != nil {
		return err
	}
	body, scenario := jobs[0].body, jobs[0].suite.Entries[0].Scenario
	p.values["gx.parse_validate_us"] = p.perOp(func() {
		if suite, err := gx.ParseSuite(body); err == nil {
			suite.WithDefaults().Validate()
		}
	}) / 1e3
	p.values["gx.digest_us"] = p.perOp(func() { scenario.Digest() }) / 1e3

	g, err := gen.Load(gen.WRN, p.cfg.size.coldScale, p.cfg.seed)
	if err != nil {
		return err
	}
	snapshot := filepath.Join(p.dir, "micro.gxs")
	if err := ingest.SaveFile(snapshot, g); err != nil {
		return err
	}
	cache := gx.NewDatasetCache()
	if _, err := cache.Graph("file+snapshot:"+snapshot, 0, 0); err != nil {
		return err
	}
	p.values["gx.filecache_hit_us"] = p.perOp(func() { cache.Graph("file+snapshot:"+snapshot, 0, 0) }) / 1e3

	results, err := gx.NewResultCache(1024)
	if err != nil {
		return err
	}
	var summary gx.ResultSummary
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	i := 0
	p.values["gx.resultcache_put_ns"] = p.perOp(func() { results.Put(keys[i%len(keys)], summary); i++ })
	p.values["gx.resultcache_get_ns"] = p.perOp(func() { results.Get(keys[i%len(keys)]); i++ })

	for rep := 0; rep < 20; rep++ {
		p.sample("serve.boot_ms", ms(p.timed("serve.boot", p.nextJob(), -1, func() {
			var srv *serve.Server
			if srv, err = serve.New(serve.Options{}); err == nil {
				ts := httptest.NewServer(srv)
				srv.Drain()
				ts.Close()
			}
		})))
		if err != nil {
			return err
		}
	}
	return nil
}

// serveHit measures a repeat submission served from the result cache
// with zero supersteps. It was tried as a fifth workload and rejected —
// a sub-millisecond loop whose throughput differed 18-20 % between
// back-to-back sets — so it lives here, where ROADMAP 2d can read it.
func (p *probe) serveHit() error {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer func() { srv.Drain(); ts.Close() }()
	in := &instance{w: &workload{name: "probe.serve_hit"}, clients: []*serve.Client{serve.NewClient(ts.URL)}}
	jobs, err := staticJobs(p.cfg, "none")
	if err != nil {
		return err
	}
	if first := in.runJob(0, p.nextJob(), &jobs[0], nil, func() {}); first.err != nil {
		return first.err
	}
	reps := max(p.cfg.size.probeReps/10, 10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		run := in.runJob(0, p.nextJob(), &jobs[0], p.tr, func() {})
		problem := ""
		switch {
		case run.err != nil:
			problem = run.err.Error()
		case run.result == nil || run.result.Supersteps != 0 || !run.result.Entries[0].CacheHit:
			problem = "a repeat submission was not served from the result cache"
		}
		p.chk.record("probe serve hit", problem)
		p.sample("serve.hit_roundtrip_us", run.latency.Seconds()*1e6)
	}
	runtime.ReadMemStats(&after)
	p.values["serve.hit_allocs_per_job"] = float64(after.Mallocs-before.Mallocs) / float64(reps)
	return nil
}

// figure8 regenerates the orkut block of the paper's Figure 8 and
// reports two of its virtual speed-ups — exact numbers, so a drift in
// paper fidelity shows as a changed value.
func (p *probe) figure8() error {
	var res *harness.Fig8Result
	var err error
	wall := p.timed("harness.fig8", p.nextJob(), -1, func() {
		res, err = harness.Fig8(harness.Options{Scale: p.cfg.size.fig8Scale, Seed: p.cfg.seed}, []gen.Dataset{gen.Orkut})
	})
	if err != nil {
		return err
	}
	p.values["harness.fig8_orkut_wall_s"] = wall.Seconds()
	p.values["harness.fig8_orkut_lp_graphx_gpu_speedup"] = res.Speedup(gen.Orkut, "LP", harness.SysGraphXGPU)
	p.values["harness.fig8_orkut_sssp_pg_gpu_speedup"] = res.Speedup(gen.Orkut, "SSSP-BF", harness.SysPowerGraphGPU)
	return nil
}
