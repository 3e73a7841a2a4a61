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

// Fig9aResult is the Orkut scalability sweep.
type Fig9aResult struct {
	Entries []Fig9Entry
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
	res := &Fig9aResult{}
	for _, gpus := range fig9GPUCounts() {
		for _, sys := range []string{"GX-Plug+PowerGraph", "Lux", "Gunrock"} {
			res.Entries = append(res.Entries, fig9Point(sys, g, pr, gpus, fig9PRIters, o))
		}
	}
	return res, nil
}

// Entry finds a point.
func (r *Fig9aResult) Entry(system string, gpus int) (Fig9Entry, bool) {
	for _, e := range r.Entries {
		if e.System == system && e.GPUs == gpus {
			return e, true
		}
	}
	return Fig9Entry{}, false
}

// String renders the sweep.
func (r *Fig9aResult) String() string {
	var b strings.Builder
	header(&b, "Fig 9a: PageRank @ Orkut, time vs #GPUs",
		"System", "1 GPU", "2 GPUs", "4 GPUs", "12 GPUs")
	for _, sys := range []string{"GX-Plug+PowerGraph", "Lux", "Gunrock"} {
		fmt.Fprintf(&b, "%-16s", sys)
		for _, gpus := range fig9GPUCounts() {
			e, _ := r.Entry(sys, gpus)
			if e.Status != "" {
				fmt.Fprintf(&b, "%-16s", e.Status)
			} else {
				fmt.Fprintf(&b, "%-16s", seconds(e.Time))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig9bResult holds the large-graph cells.
type Fig9bResult struct {
	Entries []struct {
		Dataset gen.Dataset
		Fig9Entry
	}
}

// Fig9b runs Twitter and UK-2007 at 4 and 12 GPUs.
func Fig9b(o Options) (*Fig9bResult, error) {
	res := &Fig9bResult{}
	for _, d := range []gen.Dataset{gen.Twitter, gen.UK2007} {
		g, err := load(d, o)
		if err != nil {
			return nil, err
		}
		pr := algos.NewPageRank()
		for _, gpus := range []int{4, 12} {
			for _, sys := range []string{"GX-Plug+PowerGraph", "Lux", "Gunrock"} {
				e := fig9Point(sys, g, pr, gpus, fig9PRIters, o)
				res.Entries = append(res.Entries, struct {
					Dataset gen.Dataset
					Fig9Entry
				}{d, e})
			}
		}
	}
	return res, nil
}

// Entry finds a cell.
func (r *Fig9bResult) Entry(d gen.Dataset, system string, gpus int) (Fig9Entry, bool) {
	for _, e := range r.Entries {
		if e.Dataset == d && e.System == system && e.GPUs == gpus {
			return e.Fig9Entry, true
		}
	}
	return Fig9Entry{}, false
}

// String renders the cells.
func (r *Fig9bResult) String() string {
	var b strings.Builder
	header(&b, "Fig 9b: PageRank @ Twitter & UK-2007",
		"System", "TW@4", "TW@12", "UK@4", "UK@12")
	for _, sys := range []string{"GX-Plug+PowerGraph", "Lux", "Gunrock"} {
		fmt.Fprintf(&b, "%-16s", sys)
		for _, cell := range [][2]interface{}{
			{gen.Twitter, 4}, {gen.Twitter, 12}, {gen.UK2007, 4}, {gen.UK2007, 12},
		} {
			e, _ := r.Entry(cell[0].(gen.Dataset), sys, cell[1].(int))
			if e.Status != "" {
				fmt.Fprintf(&b, "%-16s", e.Status)
			} else {
				fmt.Fprintf(&b, "%-16s", seconds(e.Time))
			}
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
	Entries []struct {
		Algo string
		Fig9Entry
	}
}

// Fig9c sweeps GPU counts for LP, SSSP-BF and PageRank on Orkut.
func Fig9c(o Options) (*Fig9cResult, error) {
	o = o.Denser(8)
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	res := &Fig9cResult{}
	for _, alg := range fig8Algorithms(g) {
		for _, gpus := range fig9GPUCounts() {
			t, err := runGXPlugGPUs(g, alg, gpus, fig8MaxIter(alg), o)
			e := Fig9Entry{System: "GX-Plug+PowerGraph", GPUs: gpus}
			if err != nil {
				e.Status = statusOf(err)
			} else {
				e.Time = t
			}
			res.Entries = append(res.Entries, struct {
				Algo string
				Fig9Entry
			}{alg.Name(), e})
		}
	}
	return res, nil
}

// Entry finds a point.
func (r *Fig9cResult) Entry(algo string, gpus int) (Fig9Entry, bool) {
	for _, e := range r.Entries {
		if e.Algo == algo && e.GPUs == gpus {
			return e.Fig9Entry, true
		}
	}
	return Fig9Entry{}, false
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
			if e.Status != "" {
				fmt.Fprintf(&b, "%-16s", e.Status)
			} else {
				fmt.Fprintf(&b, "%-16s", seconds(e.Time))
			}
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
	Entries []struct {
		Algo  string
		Combo string
		Time  time.Duration
	}
}

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
	res := &Fig9dResult{}
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
			res.Entries = append(res.Entries, struct {
				Algo  string
				Combo string
				Time  time.Duration
			}{alg.Name(), combo, run.Time})
		}
	}
	return res, nil
}

// Entry finds a point.
func (r *Fig9dResult) Entry(algo, combo string) (time.Duration, bool) {
	for _, e := range r.Entries {
		if e.Algo == algo && e.Combo == combo {
			return e.Time, true
		}
	}
	return 0, false
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
