package harness

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/baseline/gunrock"
	"gxplug/internal/baseline/lux"
	"gxplug/internal/device"
	"gxplug/internal/engine"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
)

// Figure 9: scalability. (a) PageRank on Orkut vs GPU count against Lux
// and Gunrock; (b) the same on Twitter and UK-2007 at 4/12 GPUs with the
// OOM/No-Config failures; (c) per-algorithm GPU scaling of
// PowerGraph+GX-Plug; (d) mixing & matching CPU and GPU daemons.

// Fig9Entry is one measured point or a failure marker.
type Fig9Entry struct {
	System string
	GPUs   int
	Time   time.Duration
	// Status is "" for a measurement, or "No Config" / "O.O.M" exactly as
	// the figure annotates missing bars.
	Status string
}

// cell renders the point as the figure prints it: its failure marker,
// else its time.
func (e Fig9Entry) cell() string {
	if e.Status != "" {
		return e.Status
	}
	return seconds(e.Time)
}

// fig9Key locates a Fig 9a–9c point; each subfigure leaves the axes it
// does not sweep at their zero values.
type fig9Key struct {
	d      gen.Dataset
	algo   string
	system string
	gpus   int
}

// fig9Systems are the compared systems of Fig 9a and 9b, figure order.
var fig9Systems = []string{"GX-Plug+PowerGraph", "Lux", "Gunrock"}

// Fig9aResult is the Orkut scalability sweep.
type Fig9aResult struct {
	entries map[fig9Key]Fig9Entry
}

// fig9GPUCounts are the x-axis points of Fig 9a/9c.
func fig9GPUCounts() []int { return []int{1, 2, 4, 12} }

// fig9PRIters fixes the PageRank workload length for comparability.
const fig9PRIters = 10

// runGXPlugGPUs runs PowerGraph+GX-Plug with g GPUs spread two per node.
func runGXPlugGPUs(g *graph.Graph, alg template.Algorithm, gpus int, maxIter int, o Options) (time.Duration, error) {
	nodes, perNode := NodesForGPUs(gpus)
	res, err := powergraph.Run(engine.Config{
		Nodes: nodes, Graph: g, Alg: alg,
		Plug:    []gxplug.Options{gxplug.GPUOptions(o.Scale, perNode)},
		MaxIter: maxIter,
	})
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// fig9Point measures one (system, gpus) cell with the paper's failure
// annotations.
func fig9Point(system string, g *graph.Graph, alg template.Algorithm, gpus, maxIter int, o Options) Fig9Entry {
	e := Fig9Entry{System: system, GPUs: gpus}
	switch system {
	case "GX-Plug+PowerGraph":
		t, err := runGXPlugGPUs(g, alg, gpus, maxIter, o)
		if err != nil {
			e.Status = statusOf(err)
		} else {
			e.Time = t
		}
	case "Lux":
		res, err := lux.Run(lux.Config{
			Graph: g, Alg: alg, GPUs: gpus, Device: device.V100Scaled(o.Scale), MaxIter: maxIter,
		})
		if err != nil {
			e.Status = statusOf(err)
		} else {
			e.Time = res.Time
		}
	case "Gunrock":
		// The figure annotates memory exhaustion as O.O.M even at GPU
		// counts Gunrock cannot configure: a graph that does not fit one
		// GPU is the dominant failure. Probe single-GPU feasibility first.
		if g.MemoryFootprint(alg.AttrWidth()) > device.V100Scaled(o.Scale).MemBytes {
			e.Status = "O.O.M"
			return e
		}
		res, err := gunrock.Run(gunrock.Config{
			Graph: g, Alg: alg, GPUs: gpus, Device: device.V100Scaled(o.Scale), MaxIter: maxIter,
		})
		if err != nil {
			e.Status = statusOf(err)
		} else {
			e.Time = res.Time
		}
	}
	return e
}

func statusOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, gunrock.ErrNoMultiGPU):
		return "No Config"
	case errors.Is(err, device.ErrOutOfMemory):
		return "O.O.M"
	default:
		return "ERR: " + err.Error()
	}
}

// Fig9a sweeps GPU counts on Orkut PageRank for the three systems.
func Fig9a(o Options) (*Fig9aResult, error) {
	o = o.Denser(8)
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	pr := algos.NewPageRank()
	res := &Fig9aResult{entries: map[fig9Key]Fig9Entry{}}
	for _, gpus := range fig9GPUCounts() {
		for _, sys := range fig9Systems {
			res.entries[fig9Key{system: sys, gpus: gpus}] = fig9Point(sys, g, pr, gpus, fig9PRIters, o)
		}
	}
	return res, nil
}

// Entry finds a point.
func (r *Fig9aResult) Entry(system string, gpus int) (Fig9Entry, bool) {
	e, ok := r.entries[fig9Key{system: system, gpus: gpus}]
	return e, ok
}

// String renders the sweep.
func (r *Fig9aResult) String() string {
	var b strings.Builder
	header(&b, "Fig 9a: PageRank @ Orkut, time vs #GPUs",
		"System", "1 GPU", "2 GPUs", "4 GPUs", "12 GPUs")
	for _, sys := range fig9Systems {
		fmt.Fprintf(&b, "%-16s", sys)
		for _, gpus := range fig9GPUCounts() {
			e, _ := r.Entry(sys, gpus)
			fmt.Fprintf(&b, "%-16s", e.cell())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig9bResult holds the large-graph cells.
type Fig9bResult struct {
	entries map[fig9Key]Fig9Entry
}

// Fig9b runs Twitter and UK-2007 at 4 and 12 GPUs.
func Fig9b(o Options) (*Fig9bResult, error) {
	res := &Fig9bResult{entries: map[fig9Key]Fig9Entry{}}
	for _, d := range []gen.Dataset{gen.Twitter, gen.UK2007} {
		g, err := load(d, o)
		if err != nil {
			return nil, err
		}
		pr := algos.NewPageRank()
		for _, gpus := range []int{4, 12} {
			for _, sys := range fig9Systems {
				res.entries[fig9Key{d: d, system: sys, gpus: gpus}] = fig9Point(sys, g, pr, gpus, fig9PRIters, o)
			}
		}
	}
	return res, nil
}

// Entry finds a cell.
func (r *Fig9bResult) Entry(d gen.Dataset, system string, gpus int) (Fig9Entry, bool) {
	e, ok := r.entries[fig9Key{d: d, system: system, gpus: gpus}]
	return e, ok
}

// String renders the cells.
func (r *Fig9bResult) String() string {
	var b strings.Builder
	header(&b, "Fig 9b: PageRank @ Twitter & UK-2007",
		"System", "TW@4", "TW@12", "UK@4", "UK@12")
	for _, sys := range fig9Systems {
		fmt.Fprintf(&b, "%-16s", sys)
		for _, k := range []fig9Key{
			{d: gen.Twitter, gpus: 4}, {d: gen.Twitter, gpus: 12}, {d: gen.UK2007, gpus: 4}, {d: gen.UK2007, gpus: 12},
		} {
			e, _ := r.Entry(k.d, sys, k.gpus)
			fmt.Fprintf(&b, "%-16s", e.cell())
		}
		b.WriteString("\n")
	}
	gx, _ := r.Entry(gen.Twitter, "GX-Plug+PowerGraph", 4)
	lux, _ := r.Entry(gen.Twitter, "Lux", 4)
	fmt.Fprintf(&b, "GX-Plug+PowerGraph lead over Lux @ TW@4: %s\n", ratio(lux.Time, gx.Time))
	return b.String()
}

// Fig9cResult is the per-algorithm GPU scaling of GX-Plug+PowerGraph.
type Fig9cResult struct {
	entries map[fig9Key]Fig9Entry
}

// Fig9c sweeps GPU counts for LP, SSSP-BF and PageRank on Orkut.
func Fig9c(o Options) (*Fig9cResult, error) {
	o = o.Denser(8)
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	res := &Fig9cResult{entries: map[fig9Key]Fig9Entry{}}
	for _, alg := range fig8Algorithms(g) {
		for _, gpus := range fig9GPUCounts() {
			res.entries[fig9Key{algo: alg.Name(), gpus: gpus}] = fig9Point("GX-Plug+PowerGraph", g, alg, gpus, fig8MaxIter(alg), o)
		}
	}
	return res, nil
}

// Entry finds a point.
func (r *Fig9cResult) Entry(algo string, gpus int) (Fig9Entry, bool) {
	e, ok := r.entries[fig9Key{algo: algo, gpus: gpus}]
	return e, ok
}

// String renders the sweep.
func (r *Fig9cResult) String() string {
	var b strings.Builder
	header(&b, "Fig 9c: GX-Plug+PowerGraph @ Orkut, time vs #GPUs",
		"Algorithm", "1 GPU", "2 GPUs", "4 GPUs", "12 GPUs")
	for _, algo := range []string{"LP", "SSSP-BF", "PageRank"} {
		fmt.Fprintf(&b, "%-16s", algo)
		for _, gpus := range fig9GPUCounts() {
			e, _ := r.Entry(algo, gpus)
			fmt.Fprintf(&b, "%-16s", e.cell())
		}
		b.WriteString("\n")
	}
	two, _ := r.Entry("SSSP-BF", 2)
	four, _ := r.Entry("SSSP-BF", 4)
	fmt.Fprintf(&b, "SSSP-BF speedup from 2 to 4 GPUs: %s\n", ratio(two.Time, four.Time))
	return b.String()
}

// Fig9dResult is the daemon mix & match experiment.
type Fig9dResult struct {
	times map[algoBar]time.Duration
}

// algoBar locates one bar of a figure grouped by algorithm: Fig 9d's
// daemon combination or Fig 10's pipeline variant.
type algoBar struct{ algo, config string }

// Fig9dCombos lists the paper's 4-daemon combinations in increasing
// compute power: 2 GPUs + 2 CPUs, 3 GPUs + one double-width CPU, 4 GPUs.
func Fig9dCombos() []string { return []string{"G:G:C:C", "G:G:G:2C", "G:G:G:G"} }

func fig9dDevices(combo string, o Options) ([]device.Spec, error) {
	gpu := device.V100Scaled(o.Scale)
	cpu := device.Xeon20()
	double := device.Xeon20()
	double.Name = "Xeon-2x"
	double.Threads *= 2
	switch combo {
	case "G:G:C:C":
		return []device.Spec{gpu, gpu, cpu, cpu}, nil
	case "G:G:G:2C":
		return []device.Spec{gpu, gpu, gpu, double}, nil
	case "G:G:G:G":
		return []device.Spec{gpu, gpu, gpu, gpu}, nil
	default:
		return nil, fmt.Errorf("harness: unknown combo %q", combo)
	}
}

// Fig9d runs each combination as four daemons on one node.
func Fig9d(o Options) (*Fig9dResult, error) {
	o = o.Denser(8)
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	res := &Fig9dResult{times: map[algoBar]time.Duration{}}
	for _, alg := range fig8Algorithms(g) {
		for _, combo := range Fig9dCombos() {
			devs, err := fig9dDevices(combo, o)
			if err != nil {
				return nil, err
			}
			opts := gxplug.DefaultOptions()
			opts.Devices = devs
			run, err := powergraph.Run(engine.Config{
				Nodes: 1, Graph: g, Alg: alg,
				Plug: []gxplug.Options{opts}, MaxIter: fig8MaxIter(alg),
			})
			if err != nil {
				return nil, err
			}
			res.times[algoBar{alg.Name(), combo}] = run.Time
		}
	}
	return res, nil
}

// Entry finds a point.
func (r *Fig9dResult) Entry(algo, combo string) (time.Duration, bool) {
	t, ok := r.times[algoBar{algo, combo}]
	return t, ok
}

// String renders the grid.
func (r *Fig9dResult) String() string {
	var b strings.Builder
	header(&b, "Fig 9d: Mix & Match (4 daemons) @ Orkut",
		"Algorithm", "G:G:C:C", "G:G:G:2C", "G:G:G:G")
	for _, algo := range []string{"LP", "SSSP-BF", "PageRank"} {
		fmt.Fprintf(&b, "%-16s", algo)
		for _, combo := range Fig9dCombos() {
			t, _ := r.Entry(algo, combo)
			fmt.Fprintf(&b, "%-16s", seconds(t))
		}
		b.WriteString("\n")
	}
	return b.String()
}
