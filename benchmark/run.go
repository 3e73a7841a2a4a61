package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"time"

	"gxplug/internal/serve"
)

// clientCount is the number of closed-loop client goroutines: enough to
// keep the server's single executor worker busy, no more than the host
// has cores.
func clientCount() int { return min(2, runtime.NumCPU()) }

// instance is one set-up of a workload: generated inputs, a booted
// server (unless the workload boots one per job) and warmed caches.
type instance struct {
	w     *workload
	cfg   config
	dir   string
	jobs  []jobSpec
	order []int // a round's job list, as indices into jobs
	chk   *checker
	// first remembers each job's first outcome: every later run of the
	// same job must reproduce it exactly.
	first map[string]outcome

	srv *serve.Server
	ts  *httptest.Server
	// One client per client goroutine for the instance's lifetime: a
	// serve.Client owns two http.Transports and cannot be closed, so a
	// client per job leaks descriptors (see README, "Findings").
	clients []*serve.Client

	setups    []time.Duration
	setupTime time.Duration // sum of setups
	rounds    []roundStats
	measured  time.Duration // sum of the rounds' wall times
}

// setUp builds the workload's inputs from the seed, boots its server
// and runs the warm-up jobs. The time it takes is the set-up time.
func (w *workload) setUp(cfg config, chk *checker) (*instance, error) {
	dir, err := workDir(cfg, w.name)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, cfg: cfg, dir: dir, chk: chk, first: map[string]outcome{}}
	if in.jobs, err = w.build(cfg, dir); err != nil {
		in.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	in.order = jobOrder(cfg.seed, len(in.jobs), w.repeat)
	if !w.fresh {
		if in.srv, err = serve.New(w.opts); err != nil {
			in.close()
			return nil, err
		}
		in.ts = httptest.NewServer(in.srv)
		for c := 0; c < clientCount(); c++ {
			in.clients = append(in.clients, serve.NewClient(in.ts.URL))
		}
	}
	// Warm up in round order, so the last warm-up job is never the
	// round's first and the one-slot result cache cannot serve it.
	var warm []int
	for _, i := range in.order[:len(in.jobs)] {
		if in.jobs[i].warm {
			warm = append(warm, i)
		}
	}
	in.check(in.play(warm, clientCount(), nil))
	return in, nil
}

// timedSetUp is setUp from a collected heap, timed: the new instance's
// first set-up time.
func (w *workload) timedSetUp(cfg config, chk *checker) (*instance, error) {
	runtime.GC()
	start := time.Now()
	in, err := w.setUp(cfg, chk)
	if err != nil {
		return nil, err
	}
	in.setupTime = time.Since(start)
	in.setups = []time.Duration{in.setupTime}
	return in, nil
}

// close drains and stops the server and removes the generated files.
func (in *instance) close() {
	if in.srv != nil {
		in.srv.Drain()
	}
	if in.ts != nil {
		in.ts.Close()
	}
	os.RemoveAll(in.dir)
}

// jobRun is one submission's measurements and outcome.
type jobRun struct {
	job     *jobSpec
	latency time.Duration // submit → "done" event received
	submit  time.Duration // the submit round trip alone
	result  *serve.JobResult
	err     error
	// Counted in the traced pass only.
	events      int
	streamBytes int
}

// play runs the listed jobs in a closed loop: each client goroutine
// submits its next job only when its previous one is done. Against a
// shared server a client picks and submits under one lock, so jobs are
// admitted — and, the server having one executor worker, run — in list
// order: the run sequence, and with it result-cache behaviour, is the
// same in every round.
func (in *instance) play(order []int, clients int, tr *tracer) []jobRun {
	runs := make([]jobRun, len(order))
	var admit sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				admit.Lock()
				i := next
				next++
				admitted := sync.OnceFunc(admit.Unlock)
				if i >= len(order) {
					admitted()
					return
				}
				if in.w.fresh {
					admitted() // a server per job: no shared queue to order
				}
				runs[i] = in.runJob(c, i, &in.jobs[order[i]], tr, admitted)
				admitted()
			}
		}()
	}
	wg.Wait()
	return runs
}

// runJob submits one body and follows its event stream to the terminal
// "done" event — what `gxrun -remote` does — calling admitted once the
// server has accepted it. A fresh-server workload boots a server for the
// job and drains and closes it afterwards.
func (in *instance) runJob(c, seq int, job *jobSpec, tr *tracer, admitted func()) jobRun {
	run := jobRun{job: job}
	root := tr.begin("job:"+in.w.name, seq, -1)
	defer tr.end(root)

	var client *serve.Client
	if in.w.fresh {
		boot := tr.begin("serve.boot", seq, root)
		srv, err := serve.New(in.w.opts)
		if err != nil {
			run.err = err
			return run
		}
		ts := httptest.NewServer(srv)
		tr.end(boot)
		defer func() {
			drain := tr.begin("serve.drain", seq, root)
			srv.Drain()
			// Closing the listener drops the per-job client's idle
			// connections with it.
			ts.Close()
			tr.end(drain)
		}()
		client = serve.NewClient(ts.URL)
	} else {
		client = in.clients[c]
	}

	start := time.Now()
	span := tr.begin("serve.submit", seq, root)
	reply, err := client.Submit(job.body)
	admitted()
	tr.end(span)
	run.submit = time.Since(start)
	if err != nil {
		run.err = err
		return run
	}
	span = tr.begin("serve.stream", seq, root)
	run.err = client.Stream(reply.ID, func(ev serve.Event) error {
		if tr != nil {
			line, _ := json.Marshal(ev) // the server's own encoding of ev
			run.events++
			run.streamBytes += len(line) + 1
		}
		if ev.Type == "done" {
			run.result = ev.Result
		}
		return nil
	})
	tr.end(span)
	run.latency = time.Since(start)
	return run
}

// roundStats is one measured round: the workload's whole job list
// replayed once.
type roundStats struct {
	jobs      int
	wall      time.Duration
	latencies []time.Duration
	virtual   time.Duration // summed ResultSummary.Time of every entry
	cpu       time.Duration // user + system CPU time of the process
	bytes     uint64        // MemStats.TotalAlloc delta
	mallocs   uint64
	gcCycles  uint32
	heapSys   uint64
}

// round replays the job list once, untraced, and checks every outcome
// after the clock has stopped.
func (in *instance) round() roundStats {
	runtime.GC() // start every round from the same heap state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	start := time.Now()
	runs := in.play(in.order, clientCount(), nil)
	rs := roundStats{jobs: len(runs), wall: time.Since(start), cpu: cpuTime() - cpu}
	runtime.ReadMemStats(&after)
	rs.bytes = after.TotalAlloc - before.TotalAlloc
	rs.mallocs = after.Mallocs - before.Mallocs
	rs.gcCycles = after.NumGC - before.NumGC
	rs.heapSys = after.HeapSys
	for _, run := range runs {
		rs.latencies = append(rs.latencies, run.latency)
		rs.virtual += run.virtual()
	}
	in.check(runs)
	return rs
}

// virtual is the job's simulated time: the sum of its entries' virtual
// makespans.
func (r *jobRun) virtual() time.Duration {
	var total time.Duration
	if r.result != nil {
		for _, e := range r.result.Entries {
			total += e.Summary.Time
		}
	}
	return total
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF; the metric reads 0 if it does
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checker counts attempted and failed checks. A job is one check; so is
// each cross-check of a verify step.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errors    []string
}

// record counts one check; problem is empty when it passed.
func (c *checker) record(what, problem string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if problem == "" {
		return
	}
	c.failed++
	if len(c.errors) < 20 {
		c.errors = append(c.errors, what+": "+problem)
	}
}

// outcome is what must repeat exactly whenever a job is run again: per
// entry the attribute digest, iteration count and virtual time, plus the
// per-boundary digests of a dynamic run.
type outcome []entryOutcome

type entryOutcome struct {
	Name       string
	Digest     string
	Sum        float64
	Iterations int
	Time       time.Duration
	Boundaries []string
}

func outcomeOf(res *serve.JobResult) outcome {
	out := make(outcome, len(res.Entries))
	for i, e := range res.Entries {
		out[i] = entryOutcome{
			Name: e.Name, Digest: e.Summary.AttrsDigest, Sum: e.Summary.AttrsSum,
			Iterations: e.Summary.Iterations, Time: e.Summary.Time,
		}
		for _, b := range e.Summary.Batches {
			out[i].Boundaries = append(out[i].Boundaries, b.AttrsDigest)
		}
	}
	return out
}

// check records one check per run.
func (in *instance) check(runs []jobRun) {
	for i := range runs {
		in.chk.record(in.w.name+" "+runs[i].job.label, in.problem(&runs[i]))
	}
}

// problem says what is wrong with a run, or "" when nothing is: the job
// must end "done" with no failed entry, every entry must have been
// computed (not served from the result cache), and the outcome must
// equal the job's first outcome.
func (in *instance) problem(run *jobRun) string {
	if run.err != nil {
		return run.err.Error()
	}
	res := run.result
	switch {
	case res == nil:
		return "stream ended without a result"
	case res.Failed != 0:
		return fmt.Sprintf("%d entries failed", res.Failed)
	case len(res.Entries) != len(run.job.suite.Entries):
		return fmt.Sprintf("%d entries reported, %d submitted", len(res.Entries), len(run.job.suite.Entries))
	}
	for _, e := range res.Entries {
		switch {
		case e.Err != "":
			return "entry " + e.Name + ": " + e.Err
		case e.CacheHit:
			return "entry " + e.Name + " was served from the result cache"
		case e.Summary.Totals.Supersteps == 0:
			return "entry " + e.Name + " ran no superstep"
		}
	}
	got := outcomeOf(res)
	first, seen := in.first[run.job.label]
	if !seen {
		in.first[run.job.label] = got
	} else if !reflect.DeepEqual(first, got) {
		return fmt.Sprintf("outcome %+v differs from the first run's %+v", got, first)
	}
	return ""
}

// measure runs the selected workloads and returns the report.
//
// Protocol: each workload is set up, then measured rounds are interleaved
// round-robin over the workloads, so slow multi-second noise regimes of
// the host spread over all of them, with further timed set-ups between
// them; every reported wall figure is a median, over rounds or over
// set-ups. Verification and the traced pass come after the clock has
// stopped.
func measure(cfg config, log io.Writer) (*report, error) {
	selected := workloads
	if cfg.workload != "all" {
		w := findWorkload(cfg.workload)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q (want %s, or all)", cfg.workload, workloadNames())
		}
		selected = []*workload{w}
	}
	// At least three set-ups, and up to seven while they have taken less
	// than two seconds together: the short ones are the noisy ones. The
	// first is the instance that gets measured; the others are done on
	// the side between its rounds, so that they sample the host's speed
	// over the whole run and not over its first seconds.
	minSetups, maxSetups, minR := 3, 7, minRounds
	budget := time.Duration(cfg.seconds * float64(time.Second))
	switch {
	case cfg.rounds > 0:
		minSetups, maxSetups = 1, 1
	case cfg.trace && cfg.workload != "all":
		// A traced run of one workload spends its time in the traced
		// pass; its few untraced rounds only anchor serve.job_latency_p90_ms,
		// proc.* and bench.trace_overhead_pct.
		minSetups, maxSetups, minR, budget = 1, 1, 3, budget*3/10
	}

	chk := &checker{}
	var insts []*instance
	defer func() {
		for _, in := range insts {
			in.close()
		}
	}()
	for _, w := range selected {
		in, err := w.timedSetUp(cfg, chk)
		if err != nil {
			return nil, err
		}
		insts = append(insts, in)
	}

	for r, ran := 0, true; ran; r++ {
		ran = false
		for _, in := range insts {
			if cfg.rounds > 0 && r >= cfg.rounds || cfg.rounds == 0 && r >= minR && in.measured >= budget {
				continue
			}
			rs := in.round()
			in.rounds = append(in.rounds, rs)
			fmt.Fprintf(log, "%s round %d: %.2f jobs/s, p50 %.1f ms, cpu %.1f ms/job\n", in.w.name, r,
				float64(rs.jobs)/rs.wall.Seconds(), percentile(milliseconds(rs.latencies), 50), rs.cpu.Seconds()*1e3/float64(rs.jobs))
			in.measured += rs.wall
			ran = true

			if n := len(in.setups); n < minSetups || n < maxSetups && in.setupTime < 2*time.Second {
				side, err := in.w.timedSetUp(cfg, chk)
				if err != nil {
					return nil, err
				}
				side.close()
				in.setups = append(in.setups, side.setups[0])
				in.setupTime += side.setups[0]
			}
		}
	}

	rep := &report{Env: currentEnvironment(), Seed: cfg.seed, Workloads: map[string]*workloadReport{}}
	for _, in := range insts {
		fmt.Fprintf(log, "%s: %d rounds of %d jobs, %d set-ups (median %.2fs)\n", in.w.name, len(in.rounds), len(in.order), len(in.setups), median(seconds(in.setups)))
		in.w.verify(in)
		values, samples := in.endToEndValues()
		m, err := fill(cfg.spec.EndToEnd, values)
		if err != nil {
			return nil, err
		}
		wr := &workloadReport{Rounds: len(in.rounds), Samples: samples, EndToEnd: m}
		for _, rs := range in.rounds {
			wr.RoundJobsPerS = append(wr.RoundJobsPerS, float64(rs.jobs)/rs.wall.Seconds())
			wr.RoundP50Ms = append(wr.RoundP50Ms, percentile(milliseconds(rs.latencies), 50))
		}
		rep.Workloads[in.w.name] = wr
	}
	if cfg.trace {
		if err := tracedPass(cfg, insts, rep, log); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed, rep.Errors = chk.attempted, chk.failed, chk.errors
	return rep, nil
}

// endToEndValues condenses the instance's rounds: medians over rounds
// for rates and per-job costs, percentiles over every job's latency.
func (in *instance) endToEndValues() (map[string]float64, int) {
	var rate, alloc, virtual, all []float64
	for _, rs := range in.rounds {
		n := float64(rs.jobs)
		rate = append(rate, n/rs.wall.Seconds())
		alloc = append(alloc, float64(rs.bytes)/n/1e6)
		virtual = append(virtual, rs.virtual.Seconds()/n)
		all = append(all, milliseconds(rs.latencies)...)
	}
	return map[string]float64{
		"setup_s":            median(seconds(in.setups)),
		"jobs_per_s":         median(rate),
		"job_latency_p50_ms": percentile(all, 50),
		"alloc_mb_per_job":   median(alloc),
		"virtual_s_per_job":  median(virtual),
	}, len(all)
}

// roundValues are the per-layer metrics taken from the untraced rounds:
// the latency tail a client sees and the process-level costs.
func (in *instance) roundValues() map[string]float64 {
	var cpu, mallocs, gc, latencies []float64
	var heap uint64
	for _, rs := range in.rounds {
		n := float64(rs.jobs)
		latencies = append(latencies, milliseconds(rs.latencies)...)
		cpu = append(cpu, rs.cpu.Seconds()*1e3/n)
		mallocs = append(mallocs, float64(rs.mallocs)/n)
		gc = append(gc, float64(rs.gcCycles)/n)
		heap = max(heap, rs.heapSys)
	}
	return map[string]float64{
		"serve.job_latency_p90_ms": percentile(latencies, 90),

		"proc.cpu_ms_per_job":    median(cpu),
		"proc.allocs_per_job":    median(mallocs),
		"proc.gc_cycles_per_job": median(gc),
		"proc.heap_peak_mb":      float64(heap) / 1e6,
	}
}
