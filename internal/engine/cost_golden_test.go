package engine_test

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cost.golden from the current cost model")

// TestCostGolden pins the virtual clock itself: one line per live run
// (iterations and the three charged times, in nanoseconds) and one per
// dry estimate, for both engines × {native, cpu, gpu} × {pagerank, sssp}.
// Every charge formula feeds one of these numbers, so a refactor of the
// cost model that moves a single nanosecond shows up as a diff here.
// Regenerate only when a charge is changed on purpose:
//
//	go test ./internal/engine -run TestCostGolden -update
func TestCostGolden(t *testing.T) {
	g := testGraph(t)
	plugs := []struct {
		name string
		plug []gxplug.Options
	}{{"native", nil}, {"cpu", cpuPlug()}, {"gpu", gpuPlug()}}
	algs := []struct {
		name string
		make func() template.Algorithm
	}{
		{"pagerank", func() template.Algorithm { return algos.NewPageRank() }},
		{"sssp", func() template.Algorithm { return algos.NewSSSPBF(algos.DefaultSources(g.NumVertices())) }},
	}

	var run, est strings.Builder
	for _, spec := range bothSpecs() {
		for _, p := range plugs {
			for _, a := range algs {
				cfg := engine.Config{Spec: spec, Nodes: 3, Graph: g, Alg: a.make(), Plug: p.plug}
				key := strings.ToLower(spec.Name) + "/" + p.name + "/" + a.name
				res, err := engine.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				fmt.Fprintf(&run, "run %s iterations=%d time=%d upper=%d middleware=%d\n",
					key, res.Iterations, int64(res.Time), int64(res.UpperTime), int64(res.MiddlewareTime))
				e, err := engine.EstimateCost(cfg)
				if err != nil {
					t.Fatalf("%s: estimate: %v", key, err)
				}
				fmt.Fprintf(&est, "estimate %s supersteps=%d entities=%s makespan=%d\n",
					key, e.Supersteps, strconv.FormatFloat(e.Entities, 'g', -1, 64), int64(e.Makespan))
			}
		}
	}
	got := run.String() + est.String()

	const path = "testdata/cost.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("cost model moved (rerun with -update only if intended):\n--- got\n%s--- want\n%s", got, want)
	}
}
