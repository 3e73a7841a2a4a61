package harness

import (
	"fmt"
	"strings"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
)

// Fig 10: pipeline shuffle — "Pipeline*" (optimal block size), "Pipeline"
// (fixed block count) and "WithoutPipeline" (the sequential five-step
// flow) on SSSP, PR and LP.

// Fig10Result holds one time per (algorithm, variant).
type Fig10Result struct {
	Entries []struct {
		Algo    string
		Variant string
		Time    time.Duration
	}
}

// Fig10Variants lists the three configurations, paper order.
func Fig10Variants() []string { return []string{"Pipeline*", "Pipeline", "WithoutPipeline"} }

func fig10Opts(variant string, o Options) (gxplug.Options, error) {
	opts := GPUPlug(o.Scale, 1)
	switch variant {
	case "Pipeline*":
		opts.Pipeline = true
		opts.OptimalBlockSize = true
	case "Pipeline":
		opts.Pipeline = true
		opts.OptimalBlockSize = false
		opts.FixedBlockCount = 32
	case "WithoutPipeline":
		opts.Pipeline = false
		opts.OptimalBlockSize = false
		opts.FixedBlockCount = 32
	default:
		return opts, fmt.Errorf("harness: unknown pipeline variant %q", variant)
	}
	return opts, nil
}

// Fig10 measures the three pipeline variants on PowerGraph+GPU at Orkut.
func Fig10(o Options) (*Fig10Result, error) {
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	for _, alg := range fig8Algorithms(g) {
		for _, variant := range Fig10Variants() {
			opts, err := fig10Opts(variant, o)
			if err != nil {
				return nil, err
			}
			run, err := powergraph.Run(engine.Config{
				Nodes: 2, Graph: g, Alg: alg,
				Plug: []gxplug.Options{opts}, MaxIter: fig8MaxIter(alg),
			})
			if err != nil {
				return nil, err
			}
			res.Entries = append(res.Entries, struct {
				Algo    string
				Variant string
				Time    time.Duration
			}{alg.Name(), variant, run.Time})
		}
	}
	return res, nil
}

// Entry finds one bar.
func (r *Fig10Result) Entry(algo, variant string) (time.Duration, bool) {
	for _, e := range r.Entries {
		if e.Algo == algo && e.Variant == variant {
			return e.Time, true
		}
	}
	return 0, false
}

// String renders the figure.
func (r *Fig10Result) String() string {
	var b strings.Builder
	header(&b, "Fig 10: Pipeline Shuffle @ Orkut (PowerGraph+GPU)",
		"Algorithm", "Pipeline*", "Pipeline", "WithoutPipeline")
	for _, algo := range []string{"SSSP-BF", "PageRank", "LP"} {
		fmt.Fprintf(&b, "%-16s", algo)
		for _, v := range Fig10Variants() {
			t, _ := r.Entry(algo, v)
			fmt.Fprintf(&b, "%-16s", seconds(t))
		}
		b.WriteString("\n")
	}
	opt, _ := r.Entry("SSSP-BF", "Pipeline*")
	without, _ := r.Entry("SSSP-BF", "WithoutPipeline")
	fmt.Fprintf(&b, "SSSP-BF pipeline speedup (WithoutPipeline / Pipeline*): %s\n", ratio(without, opt))
	return b.String()
}

// Fig 11a: synchronization caching on GraphX and PowerGraph with Orkut
// and the uniform synthetic graph, SSSP-BF workload.

// Fig11aResult holds times with and without caching.
type Fig11aResult struct {
	Entries []struct {
		Engine  string
		Dataset gen.Dataset
		Caching bool
		Time    time.Duration
	}
}

// Fig11a measures ± caching.
func Fig11a(o Options) (*Fig11aResult, error) {
	res := &Fig11aResult{}
	engines := []struct {
		name string
		run  func(engine.Config) (*engine.Result, error)
	}{
		{"GraphX", graphx.Run},
		{"PowerGraph", powergraph.Run},
	}
	for _, d := range []gen.Dataset{gen.Orkut, gen.Syn4m} {
		g, err := load(d, o)
		if err != nil {
			return nil, err
		}
		alg := algos.NewSSSPBF(algos.DefaultSources(g.NumVertices()))
		for _, eng := range engines {
			for _, caching := range []bool{false, true} {
				opts := GPUPlug(o.Scale, 1)
				opts.Caching = caching
				run, err := eng.run(engine.Config{
					Nodes: 4, Graph: g, Alg: alg, Plug: []gxplug.Options{opts},
				})
				if err != nil {
					return nil, err
				}
				res.Entries = append(res.Entries, struct {
					Engine  string
					Dataset gen.Dataset
					Caching bool
					Time    time.Duration
				}{eng.name, d, caching, run.Time})
			}
		}
	}
	return res, nil
}

// Entry finds a bar.
func (r *Fig11aResult) Entry(engineName string, d gen.Dataset, caching bool) (time.Duration, bool) {
	for _, e := range r.Entries {
		if e.Engine == engineName && e.Dataset == d && e.Caching == caching {
			return e.Time, true
		}
	}
	return 0, false
}

// String renders the figure.
func (r *Fig11aResult) String() string {
	var b strings.Builder
	header(&b, "Fig 11a: Synchronization Caching (SSSP-BF)",
		"Engine", "Orkut", "Orkut+Cache", "Syn4m", "Syn4m+Cache")
	for _, eng := range []string{"GraphX", "PowerGraph"} {
		fmt.Fprintf(&b, "%-16s", eng)
		for _, cell := range []struct {
			d gen.Dataset
			c bool
		}{{gen.Orkut, false}, {gen.Orkut, true}, {gen.Syn4m, false}, {gen.Syn4m, true}} {
			t, _ := r.Entry(eng, cell.d, cell.c)
			fmt.Fprintf(&b, "%-16s", seconds(t))
		}
		b.WriteString("\n")
	}
	off, _ := r.Entry("GraphX", gen.Orkut, false)
	on, _ := r.Entry("GraphX", gen.Orkut, true)
	fmt.Fprintf(&b, "GraphX caching speedup @ Orkut: %s\n", ratio(off, on))
	return b.String()
}

// Fig 11b: synchronization skipping — skipped vs total iterations of
// SSSP-BF on the synthetic graph, the road network, Wiki-topcats and
// LiveJournal.

// Fig11bResult counts skipped iterations per dataset.
type Fig11bResult struct {
	Entries []struct {
		Dataset gen.Dataset
		Skipped int
		Total   int
	}
}

// Fig11bDatasets lists the four bars.
func Fig11bDatasets() []gen.Dataset {
	return []gen.Dataset{gen.Syn4m, gen.WRN, gen.WikiTopcats, gen.LiveJournal}
}

// Fig11b counts skipped synchronizations.
func Fig11b(o Options) (*Fig11bResult, error) {
	res := &Fig11bResult{}
	for _, d := range Fig11bDatasets() {
		g, err := load(d, o)
		if err != nil {
			return nil, err
		}
		alg := algos.NewSSSPBF([]graph.VertexID{0})
		opts := GPUPlug(o.Scale, 1)
		run, err := graphx.Run(engine.Config{
			Nodes: 4, Graph: g, Alg: alg, Plug: []gxplug.Options{opts},
		})
		if err != nil {
			return nil, err
		}
		res.Entries = append(res.Entries, struct {
			Dataset gen.Dataset
			Skipped int
			Total   int
		}{d, run.SkippedSyncs, run.Iterations})
	}
	return res, nil
}

// String renders the figure.
func (r *Fig11bResult) String() string {
	var b strings.Builder
	header(&b, "Fig 11b: Synchronization Skipping (SSSP-BF)",
		"Dataset", "Skipped", "Total", "Skip %")
	for _, e := range r.Entries {
		pct := 0.0
		if e.Total > 0 {
			pct = 100 * float64(e.Skipped) / float64(e.Total)
		}
		fmt.Fprintf(&b, "%-16s%-16d%-16d%-16.0f\n", e.Dataset, e.Skipped, e.Total, pct)
	}
	return b.String()
}
