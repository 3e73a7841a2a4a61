// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It drives an in-process gxd (internal/serve) over real
// loopback HTTP with serve.Client — submit, then stream until "done",
// exactly what `gxrun -remote` does — in a closed loop, and measures
// every layer under it from outside, by timing calls into the layer's
// exported functions. README.md has the protocol, the metric rationale
// and the recorded numbers; BENCHMARK.json at the repository root names
// the metrics, workloads and regression bounds.
//
// Two front ends share one runner:
//
//	benchmark -workload W -seed N -seconds S -trace 0|1
//
// measures one workload and prints, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1. Without -workload, all four workloads run in interleaved
// rounds, a traced pass follows, and a table is printed (and written to
// -out as JSON); `benchmark -agree A.json B.json` compares two such
// files against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// config is one invocation's settings.
type config struct {
	workload string  // a workload name, or "all"
	seed     int64   // every input is a function of it
	seconds  float64 // measured time per workload (when rounds == 0)
	rounds   int     // exact measured rounds per workload; 0 = by time, at least minRounds
	trace    bool    // run the traced pass and report per-layer metrics
	out      string  // write the JSON report here ("" = don't)
	workdir  string  // generated inputs and trace.json live here
	spec     *benchSpec
	size     sizing
}

// minRounds is the fewest measured rounds a time-boxed run reports a
// median over.
const minRounds = 6

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: fullSize}
	var trace, spec string
	var agree bool
	fs.StringVar(&cfg.workload, "workload", "all", "workload to measure: "+workloadNames()+", or all")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per workload (at least 6 rounds are run)")
	fs.IntVar(&cfg.rounds, "rounds", 0, "run exactly this many measured rounds per workload instead of -seconds")
	fs.StringVar(&trace, "trace", "", "1: traced pass, per-layer metrics; 0: end-to-end only (default: 1 for all workloads, 0 for one)")
	fs.StringVar(&cfg.out, "out", "", "write the JSON report to this file")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join("benchmark", "out"), "directory for generated inputs and trace.json")
	fs.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark descriptor: the metrics to report, their units and bounds")
	fs.BoolVar(&agree, "agree", false, "compare two report files: -agree A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	if cfg.spec, err = loadSpec(spec); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -agree wants two report files")
			return 2
		}
		ok, err := agreeFiles(stdout, cfg.spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	switch trace {
	case "":
		cfg.trace = cfg.workload == "all"
	case "0", "1":
		cfg.trace = trace == "1"
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q (want 0 or 1)\n", trace)
		return 2
	}
	if fs.NArg() != 0 || cfg.seconds <= 0 || cfg.rounds < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		return 2
	}

	rep, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if cfg.out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ") // a report is plain data: cannot fail
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if cfg.workload == "all" {
		rep.print(stdout, cfg.spec)
	} else {
		rep.printDriverLine(stdout, cfg.workload, cfg.trace)
	}
	if rep.Failed > 0 {
		for _, e := range rep.Errors {
			fmt.Fprintln(stderr, "benchmark: check failed:", e)
		}
		return 1
	}
	return 0
}

// report is everything one invocation measured. It is what -out writes
// and -agree reads.
type report struct {
	Env       environment                `json:"env"`
	Seed      int64                      `json:"seed"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Errors    []string                   `json:"errors,omitempty"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// workloadReport holds one workload's numbers: the end-to-end metrics
// from its untraced rounds and, after a traced pass, every per-layer
// metric.
type workloadReport struct {
	Rounds  int `json:"rounds"`
	Samples int `json:"latency_samples"`
	// RoundJobsPerS and RoundP50Ms are the per-round figures behind the
	// medians, kept so that the noise of a host can be studied from a
	// report.
	RoundJobsPerS []float64 `json:"round_jobs_per_s"`
	RoundP50Ms    []float64 `json:"round_p50_ms"`
	EndToEnd      metrics   `json:"end_to_end"`
	PerLayer      metrics   `json:"per_layer,omitempty"`
}

// environment records where the numbers were taken.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Clients    int    `json:"clients"`
}

func currentEnvironment() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Clients:    clientCount(),
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// fill builds the metrics map for defs from values, reporting any
// metric the run did not produce.
func fill(defs []specMetric, values map[string]float64) (metrics, error) {
	m := make(metrics, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		m[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return m, nil
}

// print renders the all-workloads table: per workload every end-to-end
// metric, then every per-layer metric of the traced pass.
func (r *report) print(w io.Writer, spec *benchSpec) {
	fmt.Fprintf(w, "gxplug benchmark  seed %d  nproc %d  GOMAXPROCS %d  %s  clients %d\n",
		r.Seed, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Clients)
	for _, wl := range workloads {
		wr := r.Workloads[wl.name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  (%d rounds, %d latency samples)\n", wl.name, wr.Rounds, wr.Samples)
		for _, d := range spec.EndToEnd {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, wr.EndToEnd[d.Name].Value, d.Unit)
		}
	}
	fmt.Fprintf(w, "\nper-layer (traced pass; one value where the probe does not depend on the workload)\n  %-40s", "")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %14s", wl.name)
	}
	fmt.Fprintln(w)
	for _, d := range spec.PerLayer {
		var values []float64
		for _, wl := range workloads {
			if wr := r.Workloads[wl.name]; wr != nil && wr.PerLayer != nil {
				values = append(values, wr.PerLayer[d.Name].Value)
			}
		}
		fmt.Fprintf(w, "  %-40s", d.Name)
		for i, v := range values {
			if i == 0 || v != values[0] {
				fmt.Fprintf(w, " %14.6g", v)
			}
		}
		fmt.Fprintf(w, " %s\n", d.Unit)
	}
	fmt.Fprintf(w, "\nchecks: %d attempted, %d failed\n", r.Attempted, r.Failed)
}

// printDriverLine prints the one-line JSON result a benchmark driver
// parses: end-to-end metrics untraced, per-layer metrics traced.
func (r *report) printDriverLine(w io.Writer, workload string, traced bool) {
	wr := r.Workloads[workload]
	m := wr.EndToEnd
	if traced {
		m = wr.PerLayer
	}
	line, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, m}) // plain data: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}
