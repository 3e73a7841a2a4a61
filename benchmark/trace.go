package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"gxplug/gx"
)

// span is one timed interval at a layer boundary. Spans of one job share
// its number; Parent is the index of the span that caused this one.
type span struct {
	Name    string `json:"name"`
	Job     int    `json:"job"`
	Parent  int    `json:"parent"` // -1 for a root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. All spans are
// recorded from the benchmark's own code, around calls into a layer's
// exported functions. A nil tracer records nothing, so untraced rounds
// pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, StartNs: now, EndNs: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records a span whose interval was observed elsewhere (a superstep,
// from two Observer callbacks).
func (t *tracer) add(name string, job, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds()})
}

// selfTimes totals, per span name, each span's duration minus the part
// of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// write saves the spans and their self-time totals.
func (t *tracer) write(path string, self map[string]time.Duration) error {
	selfMs := make(map[string]float64)
	for name, d := range self {
		selfMs[name] = d.Seconds() * 1e3
	}
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		SelfMs map[string]float64 `json:"self_ms"`
	}{t.spans, selfMs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedPass produces every per-layer metric: the layer probes once
// (they do not depend on the workload), then, per workload, a traced
// single-client replay of its distinct jobs for the serve.* metrics and
// the process costs of its untraced rounds. End-to-end numbers never
// come from here.
func tracedPass(cfg config, insts []*instance, rep *report, log io.Writer) error {
	tr := newTracer()
	dir, err := workDir(cfg, "probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p := &probe{cfg: cfg, tr: tr, dir: dir, chk: insts[0].chk,
		samples: map[string][]float64{}, values: map[string]float64{}}
	layer, err := p.run()
	if err != nil {
		return err
	}
	for _, in := range insts {
		values := maps.Clone(layer)
		if err := in.tracedReplay(tr, values); err != nil {
			return err
		}
		maps.Copy(values, in.roundValues())
		wr := rep.Workloads[in.w.name]
		if wr.PerLayer, err = fill(cfg.spec.PerLayer, values); err != nil {
			return err
		}
	}
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintln(log, "traced pass, self time by span name:")
	for _, name := range names {
		fmt.Fprintf(log, "  %-28s %10.1f ms\n", name, self[name].Seconds()*1e3)
	}
	return tr.write(filepath.Join(cfg.workdir, "trace.json"), self)
}

// tracedReplay plays the workload's distinct jobs three times with one
// client — untraced, traced, and in process without the server — and
// derives the serve.* metrics from the differences.
func (in *instance) tracedReplay(tr *tracer, values map[string]float64) error {
	once := in.order[:len(in.jobs)]
	runtime.GC() // both passes start from the same heap state, as rounds do
	plain := in.play(once, 1, nil)
	runtime.GC()
	traced := in.play(once, 1, tr)
	in.check(plain)
	in.check(traced)

	var submit, stream, overhead []float64
	var events, bytes float64
	for i, run := range traced {
		submit = append(submit, run.submit.Seconds()*1e3)
		stream = append(stream, (run.latency-run.submit).Seconds()*1e3)
		overhead = append(overhead, (run.latency.Seconds()/plain[i].latency.Seconds()-1)*100)
		events += float64(run.events)
		bytes += float64(run.streamBytes)
	}
	n := float64(len(traced))
	values["serve.submit_ms"] = median(submit)
	values["serve.stream_ms"] = median(stream)
	values["serve.events_per_job"] = events / n
	values["serve.stream_kb_per_job"] = bytes / n / 1e3
	// Job by job, so that the jobs' different sizes cancel.
	values["bench.trace_overhead_pct"] = median(overhead)

	// The same bodies through gx.RunSuite directly, under the cache
	// conditions the server gives them: warm shared caches for a
	// persistent server, empty ones for a server per job.
	cache := gx.NewDatasetCache()
	runSuite := func(job *jobSpec) (time.Duration, error) {
		if in.w.fresh {
			cache = gx.NewDatasetCache()
		}
		start := time.Now()
		res, err := gx.RunSuite(job.suite, gx.WithCache(cache), gx.WithPool(runtime.GOMAXPROCS(0)))
		if err == nil {
			err = res.Err()
		}
		return time.Since(start), err
	}
	for i := range in.jobs {
		if job := &in.jobs[i]; job.warm && !in.w.fresh {
			if _, err := runSuite(job); err != nil {
				return err
			}
		}
	}
	runtime.GC()
	var added []float64
	for k, i := range once {
		d, err := runSuite(&in.jobs[i])
		if err != nil {
			return err
		}
		added = append(added, ms(plain[k].latency-d))
	}
	values["serve.overhead_ms"] = median(added)
	return nil
}
