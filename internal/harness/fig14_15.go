package harness

import (
	"fmt"
	"strings"
	"time"

	"gxplug/internal/engine"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/pipeline"
)

// Fig 14: middleware cost ratio — the share of total time spent inside
// the middleware, versus cluster size, for both engines on Orkut.

// Fig14Result holds ratios per (engine, algorithm, nodes).
type Fig14Result struct {
	ratios map[fig14Key]float64
}

type fig14Key struct {
	engine, algo string
	nodes        int
}

// Fig14Nodes are the x-axis points.
func Fig14Nodes() []int { return []int{4, 8, 16, 32} }

// Fig14 measures the ratio grid.
func Fig14(o Options) (*Fig14Result, error) {
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	engines := []struct {
		name string
		run  func(engine.Config) (*engine.Result, error)
	}{
		{"PowerGraph", powergraph.Run},
		{"GraphX", graphx.Run},
	}
	res := &Fig14Result{ratios: map[fig14Key]float64{}}
	for _, eng := range engines {
		for _, alg := range fig8Algorithms(g) {
			for _, nodes := range Fig14Nodes() {
				run, err := eng.run(engine.Config{
					Nodes: nodes, Graph: g, Alg: alg,
					Plug:    []gxplug.Options{gxplug.GPUOptions(o.Scale, 1)},
					MaxIter: fig8MaxIter(alg),
				})
				if err != nil {
					return nil, err
				}
				total := run.MiddlewareTime + run.UpperTime
				ratio := 0.0
				if total > 0 {
					ratio = float64(run.MiddlewareTime) / float64(total)
				}
				res.ratios[fig14Key{eng.name, alg.Name(), nodes}] = ratio
			}
		}
	}
	return res, nil
}

// Entry finds one ratio.
func (r *Fig14Result) Entry(engineName, algo string, nodes int) (float64, bool) {
	ratio, ok := r.ratios[fig14Key{engineName, algo, nodes}]
	return ratio, ok
}

// String renders one block per engine.
func (r *Fig14Result) String() string {
	var b strings.Builder
	for _, eng := range []string{"PowerGraph", "GraphX"} {
		header(&b, fmt.Sprintf("Fig 14: Middleware Cost Ratio @ Orkut (%s)", eng),
			"Algorithm", "4 nodes", "8 nodes", "16 nodes", "32 nodes")
		for _, algo := range []string{"SSSP-BF", "LP", "PageRank"} {
			fmt.Fprintf(&b, "%-16s", algo)
			for _, nodes := range Fig14Nodes() {
				ratio, _ := r.Entry(eng, algo, nodes)
				fmt.Fprintf(&b, "%-16s", fmt.Sprintf("%.0f%%", 100*ratio))
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig 15: block-count sweep — measured per-iteration pipeline time versus
// the number of blocks s, with the Lemma 1 estimate and its s_opt, using
// the paper's measured coefficients.

// Fig15Point is one sweep sample.
type Fig15Point struct {
	Blocks    int
	Measured  time.Duration
	Estimated time.Duration
}

// Fig15Series is one algorithm's sweep.
type Fig15Series struct {
	Algo string
	// Entities is the per-iteration entity count d driving the estimates.
	Entities float64
	// EstOpt is the Lemma 1 optimal block count for the paper's measured
	// coefficients at this d.
	EstOpt int
	Points []Fig15Point
}

// Fig15Result holds all three sweeps.
type Fig15Result struct {
	Series []Fig15Series
}

// Fig15Blocks are the x-axis samples of the figure.
func Fig15Blocks() []int { return []int{1, 5, 10, 20, 30, 50, 500, 1000, 5000} }

// fig15Coefficients maps algorithms to the paper's measured (k1,k2,k3,a).
func fig15Coefficients(algo string) pipeline.Coefficients {
	switch algo {
	case "SSSP-BF":
		return pipeline.PaperSSSP
	case "LP":
		return pipeline.PaperLP
	default:
		return pipeline.PaperPR
	}
}

// Fig15 sweeps the block count on PowerGraph+GPU at Orkut and reports
// per-iteration pipeline time next to the Equation 2 estimate.
func Fig15(o Options) (*Fig15Result, error) {
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{}
	for _, alg := range fig8Algorithms(g) {
		co := fig15Coefficients(alg.Name())
		series := Fig15Series{Algo: alg.Name()}
		for _, s := range Fig15Blocks() {
			opts := gxplug.GPUOptions(o.Scale, 1)
			opts.OptimalBlockSize = false
			opts.FixedBlockCount = s
			run, err := powergraph.Run(engine.Config{
				Nodes: 1, Graph: g, Alg: alg,
				Plug: []gxplug.Options{opts}, MaxIter: fig8MaxIter(alg),
			})
			if err != nil {
				return nil, err
			}
			st := run.AgentStats[0]
			iters := st.Iterations
			if iters == 0 {
				iters = 1
			}
			perIter := st.PipelineTime / time.Duration(iters)
			d := float64(st.Entities) / float64(iters)
			if series.Entities == 0 {
				series.Entities = d
				series.EstOpt = co.OptimalBlocks(d)
			}
			series.Points = append(series.Points, Fig15Point{
				Blocks:    s,
				Measured:  perIter,
				Estimated: co.Estimate(series.Entities, s),
			})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// SeriesFor finds one algorithm's sweep.
func (r *Fig15Result) SeriesFor(algo string) (Fig15Series, bool) {
	for _, s := range r.Series {
		if s.Algo == algo {
			return s, true
		}
	}
	return Fig15Series{}, false
}

// String renders the sweeps.
func (r *Fig15Result) String() string {
	var b strings.Builder
	for _, s := range r.Series {
		header(&b, fmt.Sprintf("Fig 15: Block sweep — %s (d=%.0f entities/iter, est s_opt=%d)",
			s.Algo, s.Entities, s.EstOpt),
			"Blocks s", "Measured/iter", "Eq.2 estimate")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%-16d%-16s%-16s\n", p.Blocks, seconds(p.Measured), seconds(p.Estimated))
		}
		b.WriteString("\n")
	}
	return b.String()
}
