package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func smokeConfig(t *testing.T, workload string) config {
	t.Helper()
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return config{workload: workload, seed: 7, seconds: 1, rounds: 1, trace: true, workdir: t.TempDir(), spec: spec, size: smokeSize}
}

// TestSmoke runs the whole benchmark — every workload, one round, the
// traced pass — on toy inputs, and holds its output against
// BENCHMARK.json: every workload and metric named there is measured and
// emitted once with the unit given there, and every check passes.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t, "all")
	spec := cfg.spec
	rep, err := measure(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%d of %d checks failed: %v", rep.Failed, rep.Attempted, rep.Errors)
	}
	if len(spec.Workloads) != len(workloads) || len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark, %d reported", len(spec.Workloads), len(workloads), len(rep.Workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, got metrics, want []specMetric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", kind, len(got), len(want))
		}
		for _, m := range want {
			switch g, ok := got[m.Name]; {
			case !name.MatchString(m.Name):
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			case !ok:
				t.Errorf("%s: metric %s is not emitted", kind, m.Name)
			case g.Unit != m.Unit || g.Unit == "":
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
			}
		}
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloads[i].name || wl.Why == "" {
			t.Errorf("workload %d is %q in BENCHMARK.json (why: %q), %q in the benchmark", i, wl.Name, wl.Why, workloads[i].name)
		}
		wr := rep.Workloads[wl.Name]
		if wr == nil {
			t.Fatalf("workload %s is not reported", wl.Name)
		}
		same(wl.Name+" end_to_end", wr.EndToEnd, spec.EndToEnd)
		same(wl.Name+" per_layer", wr.PerLayer, spec.PerLayer)
		for _, m := range spec.EndToEnd {
			if wr.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", wl.Name, m.Name, wr.EndToEnd[m.Name].Value)
			}
		}

		// The line a driver parses has exactly the contract's keys.
		for _, traced := range []bool{false, true} {
			var line bytes.Buffer
			rep.printDriverLine(&line, wl.Name, traced)
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
				t.Errorf("driver line has keys %v", got)
			}
		}
	}
	var table bytes.Buffer
	rep.print(&table, spec)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !strings.Contains(table.String(), m.Name) {
			t.Errorf("the printed table lacks %s", m.Name)
		}
	}

	data, err := os.ReadFile(filepath.Join(cfg.workdir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.Spans) == 0 {
		t.Fatalf("trace.json: %d spans, %v", len(trace.Spans), err)
	}
	for i, s := range trace.Spans {
		if s.EndNs < s.StartNs || s.Parent >= i {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.workdir, "*-*")); len(left) != 0 {
		t.Errorf("generated inputs left behind: %v", left)
	}
}

// TestCheckerCatchesCorruption replays one round's outcomes with a
// single bit of one digest changed, and with an entry marked as served
// from the result cache: the checker must fail both.
func TestCheckerCatchesCorruption(t *testing.T) {
	chk := &checker{}
	in, err := findWorkload("native-warm").setUp(smokeConfig(t, "native-warm"), chk)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	runs := in.play(in.order, clientCount(), nil)
	in.check(runs)
	if chk.failed != 0 {
		t.Fatalf("clean run failed its checks: %v", chk.errors)
	}

	digest := &runs[0].result.Entries[0].Summary.AttrsDigest
	flipped := "0"
	if (*digest)[0] == '0' {
		flipped = "1"
	}
	*digest = flipped + (*digest)[1:]
	in.check(runs[:1])
	if chk.failed != 1 {
		t.Fatalf("a corrupted digest passed the checker (%d failures)", chk.failed)
	}
	runs[1].result.Entries[0].CacheHit = true
	in.check(runs[1:2])
	if chk.failed != 2 {
		t.Fatalf("a result-cache hit passed the checker (%d failures)", chk.failed)
	}
}

// TestAgree compares a report with itself (every row ok) and with a copy
// whose throughput dropped beyond the bound (worse) or rose beyond it
// (unresolved).
func TestAgree(t *testing.T) {
	spec := smokeConfig(t, "all").spec
	base := report{Workloads: map[string]*workloadReport{}}
	for _, wl := range spec.Workloads {
		m := metrics{}
		for _, d := range spec.EndToEnd {
			m[d.Name] = metric{Value: 100, Unit: d.Unit}
		}
		base.Workloads[wl.Name] = &workloadReport{EndToEnd: m}
	}
	write := func(name string, jobsPerS float64) string {
		r := base
		r.Workloads = map[string]*workloadReport{}
		for k, v := range base.Workloads {
			m := metrics{}
			for n, x := range v.EndToEnd {
				m[n] = x
			}
			m["jobs_per_s"] = metric{Value: jobsPerS, Unit: "1/s"}
			r.Workloads[k] = &workloadReport{EndToEnd: m}
		}
		data, _ := json.Marshal(r)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 100)
	for _, c := range []struct {
		jobsPerS float64
		ok       bool
		verdict  string
	}{{100, true, "ok"}, {50, false, "worse"}, {200, false, "unresolved"}} {
		var out bytes.Buffer
		ok, err := agreeFiles(&out, spec, a, write("b.json", c.jobsPerS))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("jobs_per_s 100 → %v: ok=%v, output:\n%s", c.jobsPerS, ok, out.String())
		}
	}
}
