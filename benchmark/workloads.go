package main

import (
	"compress/gzip"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"gxplug/gx"
	"gxplug/internal/gen"
	"gxplug/internal/gen/ingest"
	"gxplug/internal/graph"
	"gxplug/internal/serve"
)

// sizing scales the inputs. fullSize is the benchmark; smokeSize is the
// same code on toy graphs and a two-scenario slice, for the smoke test.
type sizing struct {
	scale     int64 // dataset scale divisor of the warm and dynamic workloads
	coldScale int64 // dataset scale divisor of cold-suite
	fig8Scale int64 // scale of the harness.Fig8 drift gate
	slice     int   // scenarios kept per workload, 0 = all
	largeAdds int   // adds per batch of the "large" dynamic stream (removes are half)
	probeReps int   // repetitions of the micro probes
}

var (
	fullSize  = sizing{scale: 1000, coldScale: 500, fig8Scale: 2000, largeAdds: 400, probeReps: 2000}
	smokeSize = sizing{scale: 16000, coldScale: 8000, fig8Scale: 32000, slice: 2, largeAdds: 40, probeReps: 50}
)

// nodes is the simulated cluster size of every scenario.
const nodes = 4

// jobSpec is one distinct submission of a workload.
type jobSpec struct {
	label string   // unique in its workload
	suite gx.Suite // what body encodes, for in-process replays
	body  []byte   // the JSON the server is sent
	// warm marks the smallest set of jobs that fills every server-side
	// cache the workload reads (datasets, partitionings, stream files).
	warm bool
}

// workload is one traffic mix (BENCHMARK.json says why each was chosen).
// Its job list is a fixed function of the seed: a seeded permutation of
// its distinct jobs, replayed `repeat` times per round.
type workload struct {
	name   string
	repeat int
	// fresh boots a server per job (empty caches); otherwise one server
	// with opts lives as long as the instance.
	fresh bool
	opts  serve.Options
	build func(cfg config, dir string) ([]jobSpec, error)
	// verify cross-checks the outcomes against independent computations
	// once the rounds are over. It is not timed.
	verify func(in *instance)
}

// Compute workloads keep one result-cache slot, so two consecutive
// distinct scenarios always recompute while datasets and partitionings
// stay cached; the checker fails the run if any entry is served from
// the result cache.
var computeOpts = serve.Options{ResultCapacity: 1}

var workloads = []*workload{
	{
		name:   "native-warm",
		repeat: 3, opts: computeOpts,
		build:  func(cfg config, _ string) ([]jobSpec, error) { return staticJobs(cfg, "none") },
		verify: verifySequential,
	},
	{
		name:   "plugged-warm",
		repeat: 1, opts: computeOpts,
		build:  func(cfg config, _ string) ([]jobSpec, error) { return staticJobs(cfg, "gpu") },
		verify: verifyPluggedAgainstNative,
	},
	{
		name:   "cold-suite",
		repeat: 3, fresh: true,
		build:  coldJobs,
		verify: verifySnapshotsAgainstGenerated,
	},
	{
		name:   "dynamic-inc",
		repeat: 2, opts: computeOpts,
		build:  dynamicJobs,
		verify: verifyIncrementalAgainstScratch,
	},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newJob encodes a suite as a submission body.
func newJob(label string, warm bool, entries ...gx.SuiteEntry) (jobSpec, error) {
	suite := gx.Suite{Name: label, Entries: entries}
	body, err := suite.JSON()
	if err != nil {
		return jobSpec{}, err
	}
	return jobSpec{label: label, suite: suite, body: body, warm: warm}, nil
}

// sliced keeps the smoke test's slice of a job list.
func (s sizing) sliced(jobs []jobSpec) []jobSpec {
	if s.slice > 0 && s.slice < len(jobs) {
		return jobs[:s.slice]
	}
	return jobs
}

// staticScenarios is the 16-scenario list native-warm and plugged-warm
// share: {graphx, powergraph} × {pagerank, sssp, cc, lp} × {orkut, wrn}.
func staticScenarios(cfg config, accel string) []gx.SuiteEntry {
	var out []gx.SuiteEntry
	for _, engine := range []string{"graphx", "powergraph"} {
		for _, algo := range []string{"pagerank", "sssp", "cc", "lp"} {
			for _, dataset := range []string{"orkut", "wrn"} {
				out = append(out, gx.SuiteEntry{
					Name: engine + "-" + algo + "-" + dataset,
					Scenario: gx.Scenario{
						Engine: engine, Algorithm: algo, Dataset: dataset,
						Scale: cfg.size.scale, Seed: cfg.seed, Nodes: nodes, MaxIter: 16, Accel: accel,
					},
				})
			}
		}
	}
	return out
}

func staticJobs(cfg config, accel string) ([]jobSpec, error) {
	var jobs []jobSpec
	filled := map[string]bool{}
	for _, e := range staticScenarios(cfg, accel) {
		key := e.Engine + "/" + e.Dataset
		job, err := newJob(e.Name, !filled[key], e)
		if err != nil {
			return nil, err
		}
		filled[key] = true
		jobs = append(jobs, job)
	}
	return cfg.size.sliced(jobs), nil
}

// coldEntries is the 3-entry suite every cold-suite job submits over
// its one dataset: an edge-cut and a vertex-cut partitioning, three
// supersteps each.
func coldEntries(dataset string, scale, seed int64) []gx.SuiteEntry {
	entry := func(engine, algo string) gx.SuiteEntry {
		return gx.SuiteEntry{Name: engine + "-" + algo, Scenario: gx.Scenario{
			Engine: engine, Algorithm: algo, Dataset: dataset,
			Scale: scale, Seed: seed, Nodes: nodes, MaxIter: 3,
		}}
	}
	return []gx.SuiteEntry{entry("graphx", "cc"), entry("powergraph", "pagerank"), entry("graphx", "sssp")}
}

// coldJobs builds cold-suite's eight bodies: four generated datasets,
// two snapshot references (one digest-pinned) and two edge-list
// references (one gzipped). Each snapshot is of a generated triple, so
// the "gen:X" and "snap:X" jobs must agree bit for bit.
func coldJobs(cfg config, dir string) ([]jobSpec, error) {
	scale := cfg.size.coldScale
	var jobs []jobSpec
	add := func(label, dataset string, seed int64) error {
		job, err := newJob(label, true, coldEntries(dataset, scale, seed)...)
		jobs = append(jobs, job)
		return err
	}
	for _, d := range []struct {
		name string
		ds   gen.Dataset
		seed int64
		file string // how the file twin is written
	}{
		{"orkut-a", gen.Orkut, cfg.seed, "snapshot-pinned"},
		{"livejournal", gen.LiveJournal, cfg.seed, "snapshot"},
		{"wrn", gen.WRN, cfg.seed, "edgelist"},
		{"orkut-b", gen.Orkut, cfg.seed + 1, "edgelist-gz"},
	} {
		g, err := gen.Load(d.ds, scale, d.seed)
		if err != nil {
			return nil, err
		}
		if err := add("gen:"+d.name, string(d.ds), d.seed); err != nil {
			return nil, err
		}
		var label, ref string
		switch d.file {
		case "snapshot", "snapshot-pinned":
			path := filepath.Join(dir, d.name+".gxs")
			if err := ingest.SaveFile(path, g); err != nil {
				return nil, err
			}
			label, ref = "snap:"+d.name, "file+snapshot:"+path
			if d.file == "snapshot-pinned" {
				_, sha, err := ingest.FileDigests(path)
				if err != nil {
					return nil, err
				}
				ref += "#sha256=" + sha
			}
		default:
			path := filepath.Join(dir, d.name+".el")
			if err := writeEdgeList(path, g, d.file == "edgelist-gz"); err != nil {
				return nil, err
			}
			label, ref = "el:"+d.name, "file+edgelist:"+path
		}
		if err := add(label, ref, 0); err != nil {
			return nil, err
		}
	}
	return cfg.size.sliced(jobs), nil
}

func writeEdgeList(path string, g *graph.Graph, gz bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // double close on the success path is harmless
	if gz {
		zw := gzip.NewWriter(f)
		if err := graph.WriteEdgeList(zw, g); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
	} else if err := graph.WriteEdgeList(f, g); err != nil {
		return err
	}
	return f.Close()
}

// dynamicJobs builds dynamic-inc's eight scenarios: {graphx,
// powergraph} × {pagerank, cc} × {small, large} three-batch streams over
// orkut, read from .gxb files, in the default incremental mode.
func dynamicJobs(cfg config, dir string) ([]jobSpec, error) {
	g, err := gen.Load(gen.Orkut, cfg.size.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	streams := map[string]string{}
	for name, c := range map[string]gen.BatchesConfig{
		"small": {Batches: 3, Adds: 12, Removes: 6, Seed: cfg.seed},
		"large": {Batches: 3, Adds: cfg.size.largeAdds, Removes: cfg.size.largeAdds / 2, Seed: cfg.seed + 1},
	} {
		batches, err := gen.SynthesizeBatches(g, c)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, name+".gxb")
		if err := ingest.SaveBatchStreamFile(path, batches); err != nil {
			return nil, err
		}
		streams[name] = "file+batches:" + path
	}
	var jobs []jobSpec
	for _, engine := range []string{"graphx", "powergraph"} {
		for _, algo := range []string{"pagerank", "cc"} {
			for _, size := range []string{"small", "large"} {
				job, err := newJob(engine+"-"+algo+"-"+size, algo == "pagerank", gx.SuiteEntry{
					Name: engine + "-" + algo + "-" + size,
					Scenario: gx.Scenario{
						Engine: engine, Algorithm: algo, Dataset: string(gen.Orkut),
						Scale: cfg.size.scale, Seed: cfg.seed, Nodes: nodes, MaxIter: 16,
						Batches: &gx.BatchSpec{Stream: streams[size]},
					},
				})
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, job)
			}
		}
	}
	return cfg.size.sliced(jobs), nil
}

// jobOrder is a round's job list: one seeded permutation of the distinct
// jobs, replayed repeat times. Equal jobs are a whole permutation apart,
// so with two clients in flight they never run back to back and the
// one-slot result cache never serves them.
func jobOrder(seed int64, distinct, repeat int) []int {
	perm := rand.New(rand.NewSource(seed)).Perm(distinct)
	order := make([]int, 0, distinct*repeat)
	for r := 0; r < repeat; r++ {
		order = append(order, perm...)
	}
	return order
}

// workDir creates a fresh directory for one instance's generated files.
func workDir(cfg config, name string) (string, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(cfg.workdir, fmt.Sprintf("%s-%d-", name, os.Getpid()))
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
