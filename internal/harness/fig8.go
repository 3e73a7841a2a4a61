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
	"gxplug/internal/gxplug/template"
)

// Fig8 compares computation time of {GraphX, PowerGraph} × {native, +CPU,
// +GPU} on {LP, SSSP, PR} over the four datasets of Figure 8, on the
// paper's 6-node cluster.

// Fig8System names one of the six system configurations.
type Fig8System string

// The six bars of each Fig 8 group, paper order.
const (
	SysGraphX        Fig8System = "GraphX"
	SysGraphXCPU     Fig8System = "GraphX+CPU"
	SysGraphXGPU     Fig8System = "GraphX+GPU"
	SysPowerGraph    Fig8System = "PowerGraph"
	SysPowerGraphCPU Fig8System = "PowerGraph+CPU"
	SysPowerGraphGPU Fig8System = "PowerGraph+GPU"
)

// Fig8Systems lists all configurations in paper order.
func Fig8Systems() []Fig8System {
	return []Fig8System{SysGraphX, SysGraphXCPU, SysGraphXGPU,
		SysPowerGraph, SysPowerGraphCPU, SysPowerGraphGPU}
}

// Fig8Datasets lists the four subfigures' datasets.
func Fig8Datasets() []gen.Dataset {
	return []gen.Dataset{gen.Twitter, gen.Orkut, gen.LiveJournal, gen.WikiTopcats}
}

// Fig8Cell is one bar: computation time of one system on one algorithm
// and dataset.
type Fig8Cell struct {
	Dataset gen.Dataset
	Algo    string
	System  Fig8System
	Time    time.Duration
	Err     string // non-empty when the configuration failed (e.g. OOM)
}

// Fig8Result holds the full grid.
type Fig8Result struct {
	datasets []gen.Dataset // the datasets run, in order
	cells    map[fig8Key]Fig8Cell
}

type fig8Key struct {
	d    gen.Dataset
	algo string
	sys  Fig8System
}

// fig8Nodes is the paper's physical cluster size.
const fig8Nodes = 6

// prIterCap bounds PageRank for the timing figures: the paper reports
// computation time of a fixed PR workload, not convergence to 1e-9.
const prIterCap = 20

// fig8Algorithms builds the three workloads for a graph.
func fig8Algorithms(g *graph.Graph) []template.Algorithm {
	return []template.Algorithm{
		algos.NewLP(),
		algos.NewSSSPBF(algos.DefaultSources(g.NumVertices())),
		algos.NewPageRank(),
	}
}

func fig8MaxIter(a template.Algorithm) int {
	if a.Name() == "PageRank" {
		return prIterCap
	}
	return 0
}

// runSystem executes one Fig 8 configuration.
func runSystem(sys Fig8System, g *graph.Graph, alg template.Algorithm, nodes int, o Options) (time.Duration, error) {
	var run func(engine.Config) (*engine.Result, error)
	var plug []gxplug.Options
	switch sys {
	case SysGraphX:
		run = graphx.Run
	case SysGraphXCPU:
		run, plug = graphx.Run, []gxplug.Options{gxplug.CPUOptions()}
	case SysGraphXGPU:
		run, plug = graphx.Run, []gxplug.Options{gxplug.GPUOptions(o.Scale, 2)}
	case SysPowerGraph:
		run = powergraph.Run
	case SysPowerGraphCPU:
		run, plug = powergraph.Run, []gxplug.Options{gxplug.CPUOptions()}
	case SysPowerGraphGPU:
		run, plug = powergraph.Run, []gxplug.Options{gxplug.GPUOptions(o.Scale, 2)}
	default:
		return 0, fmt.Errorf("harness: unknown system %q", sys)
	}
	res, err := run(engine.Config{
		Nodes: nodes, Graph: g, Alg: alg, Plug: plug, MaxIter: fig8MaxIter(alg),
	})
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// Fig8 runs the full grid. Datasets may be restricted to keep bench runs
// bounded; nil means all four.
func Fig8(o Options, datasets []gen.Dataset) (*Fig8Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if datasets == nil {
		datasets = Fig8Datasets()
	}
	res := &Fig8Result{datasets: datasets, cells: map[fig8Key]Fig8Cell{}}
	for _, d := range datasets {
		g, err := load(d, o)
		if err != nil {
			return nil, err
		}
		for _, alg := range fig8Algorithms(g) {
			for _, sys := range Fig8Systems() {
				cell := Fig8Cell{Dataset: d, Algo: alg.Name(), System: sys}
				t, err := runSystem(sys, g, alg, fig8Nodes, o)
				if err != nil {
					cell.Err = err.Error()
				} else {
					cell.Time = t
				}
				res.cells[fig8Key{d, cell.Algo, sys}] = cell
			}
		}
	}
	return res, nil
}

// Cell finds one grid entry.
func (r *Fig8Result) Cell(d gen.Dataset, algo string, sys Fig8System) (Fig8Cell, bool) {
	c, ok := r.cells[fig8Key{d, algo, sys}]
	return c, ok
}

// Speedup returns the acceleration ratio of sys over the matching native
// engine for one dataset/algorithm.
func (r *Fig8Result) Speedup(d gen.Dataset, algo string, sys Fig8System) float64 {
	base := SysGraphX
	if strings.HasPrefix(string(sys), "PowerGraph") {
		base = SysPowerGraph
	}
	b, ok1 := r.Cell(d, algo, base)
	c, ok2 := r.Cell(d, algo, sys)
	if !ok1 || !ok2 || c.Time == 0 {
		return 0
	}
	return b.Time.Seconds() / c.Time.Seconds()
}

// String renders one block per dataset, matching the Fig 8 subfigures.
func (r *Fig8Result) String() string {
	var b strings.Builder
	for _, d := range r.datasets {
		header(&b, fmt.Sprintf("Fig 8: CompTime(s) @ %s", d),
			"System", "LP", "SSSP-BF", "PageRank")
		for _, sys := range Fig8Systems() {
			fmt.Fprintf(&b, "%-16s", sys)
			for _, algo := range []string{"LP", "SSSP-BF", "PageRank"} {
				if c, ok := r.Cell(d, algo, sys); ok {
					if c.Err != "" {
						fmt.Fprintf(&b, "%-16s", "ERR")
					} else {
						fmt.Fprintf(&b, "%-16s", seconds(c.Time))
					}
				}
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "Speedup over native: LP GraphX+GPU %.2fx, SSSP-BF PowerGraph+GPU %.2fx\n",
			r.Speedup(d, "LP", SysGraphXGPU), r.Speedup(d, "SSSP-BF", SysPowerGraphGPU))
		b.WriteString("\n")
	}
	return b.String()
}
