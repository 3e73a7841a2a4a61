package harness

import (
	"fmt"
	"strings"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/device"
	"gxplug/internal/engine"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/balance"
	"gxplug/internal/gxplug/template"
)

// Fig 12: workload balancing. (a) fixed hardware, tuned partitioning
// (Lemma 2); (b) fixed partitioning, tuned accelerator allocation
// (Lemma 3). Each reports "Not Balanced", "Balanced" and the "Optimal
// Estimation" of the analytic model.

// Fig12Entry is one bar triple for one algorithm.
type Fig12Entry struct {
	Algo        string
	NotBalanced time.Duration
	Balanced    time.Duration
	Optimal     time.Duration
}

// Fig12Result holds one scenario's bars.
type Fig12Result struct {
	Scenario string
	Entries  []Fig12Entry
}

// nodeCapacity estimates a node's computation capacity factor 1/c_j in
// edge entities per second, from its devices' capacity.
func nodeCapacity(devs []device.Spec, opsPerEdge float64) float64 {
	return device.Capacity(devs...) / opsPerEdge
}

// fig12Algorithms are the two workloads of the figure.
func fig12Algorithms(g *graph.Graph) []template.Algorithm {
	return []template.Algorithm{
		algos.NewSSSPBF(algos.DefaultSources(g.NumVertices())),
		algos.NewPageRank(),
	}
}

// Fig12a: node 0 has 1 GPU + 1 CPU, node 1 has 3 GPUs + 1 CPU. The
// "Not Balanced" run splits edges evenly; the "Balanced" run splits by
// Lemma 2 fractions; the optimal estimation replaces the measured compute
// with the analytic minimum.
func Fig12a(o Options) (*Fig12Result, error) {
	o = o.Denser(8)
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	gpu := device.V100Scaled(o.Scale)
	cpu := device.Xeon20()
	nodeDevs := [][]device.Spec{
		{gpu, cpu},
		{gpu, gpu, gpu, cpu},
	}
	plugs := make([]gxplug.Options, 2)
	for j, devs := range nodeDevs {
		p := gxplug.DefaultOptions()
		p.Devices = devs
		plugs[j] = p
	}
	res := &Fig12Result{Scenario: "fixed hardware, tuned partitioning (Lemma 2)"}
	for _, alg := range fig12Algorithms(g) {
		ops := alg.Hints().OpsPerEdge
		c := []float64{1 / nodeCapacity(nodeDevs[0], ops), 1 / nodeCapacity(nodeDevs[1], ops)}

		even := graph.PartitionBySizes(g, []float64{1, 1})
		fr, err := balance.Fractions(c)
		if err != nil {
			return nil, err
		}
		tuned := graph.PartitionBySizes(g, fr)

		runWith := func(p *graph.Partitioning) (*engine.Result, error) {
			return powergraph.Run(engine.Config{
				Nodes: 2, Graph: g, Alg: alg, Partitioning: p,
				Plug: plugs, MaxIter: fig8MaxIter(alg),
			})
		}
		notBal, err := runWith(even)
		if err != nil {
			return nil, err
		}
		bal, err := runWith(tuned)
		if err != nil {
			return nil, err
		}
		_, minPerIter, err := balance.OptimalPartition(float64(g.NumEdges()), c)
		if err != nil {
			return nil, err
		}
		res.Entries = append(res.Entries, Fig12Entry{
			Algo: alg.Name(), NotBalanced: notBal.Time, Balanced: bal.Time,
			Optimal: fig12Optimal(bal, minPerIter),
		})
	}
	return res, nil
}

// fig12Optimal replaces the balanced run's measured per-node compute with
// the analytic optimum of the estimation model: total time minus measured
// middleware compute plus the Lemma 2 (or 3) minimum per iteration,
// scaled by the iteration count.
func fig12Optimal(bal *engine.Result, minPerIter time.Duration) time.Duration {
	var measured time.Duration
	for _, s := range bal.AgentStats {
		if s.PipelineTime > measured {
			measured = s.PipelineTime // slowest node paces each iteration
		}
	}
	analytic := minPerIter * time.Duration(bal.Iterations)
	opt := bal.Time - measured + analytic
	if opt < analytic {
		opt = analytic
	}
	return opt
}

// Fig12b: partitions fixed at a 1:3 skew; "Not Balanced" gives both nodes
// one GPU; "Balanced" allocates GPUs per Lemma 3.
func Fig12b(o Options) (*Fig12Result, error) {
	o = o.Denser(8)
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	part := graph.PartitionBySizes(g, []float64{1, 3})
	d := []float64{
		float64(len(part.Parts[0].Edges)),
		float64(len(part.Parts[1].Edges)),
	}
	gpu := device.V100Scaled(o.Scale)
	res := &Fig12Result{Scenario: "fixed partitioning, tuned accelerators (Lemma 3)"}
	for _, alg := range fig12Algorithms(g) {
		ops := alg.Hints().OpsPerEdge
		unit := nodeCapacity([]device.Spec{gpu}, ops) // one GPU's capacity factor
		f := 4 * unit                                 // up to 4 GPUs available per node

		inv, minPerIter, err := balance.OptimalCapacities(d, f)
		if err != nil {
			return nil, err
		}
		counts, err := balance.DaemonsForCapacity(inv, unit)
		if err != nil {
			return nil, err
		}
		mkPlug := func(gpus int) gxplug.Options {
			if gpus < 1 {
				gpus = 1
			}
			return gxplug.GPUOptions(o.Scale, gpus)
		}
		notBal, err := powergraph.Run(engine.Config{
			Nodes: 2, Graph: g, Alg: alg, Partitioning: part,
			Plug:    []gxplug.Options{mkPlug(1), mkPlug(1)},
			MaxIter: fig8MaxIter(alg),
		})
		if err != nil {
			return nil, err
		}
		bal, err := powergraph.Run(engine.Config{
			Nodes: 2, Graph: g, Alg: alg, Partitioning: part,
			Plug:    []gxplug.Options{mkPlug(counts[0]), mkPlug(counts[1])},
			MaxIter: fig8MaxIter(alg),
		})
		if err != nil {
			return nil, err
		}
		res.Entries = append(res.Entries, Fig12Entry{
			Algo: alg.Name(), NotBalanced: notBal.Time, Balanced: bal.Time,
			Optimal: fig12Optimal(bal, minPerIter),
		})
	}
	return res, nil
}

// Entry finds one algorithm's bars.
func (r *Fig12Result) Entry(algo string) (Fig12Entry, bool) {
	for _, e := range r.Entries {
		if e.Algo == algo {
			return e, true
		}
	}
	return Fig12Entry{}, false
}

// String renders the bars.
func (r *Fig12Result) String() string {
	var b strings.Builder
	header(&b, "Fig 12: Workload Balancing — "+r.Scenario,
		"Algorithm", "Not Balanced", "Balanced", "Optimal Est.")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "%-16s%-16s%-16s%-16s\n",
			e.Algo, seconds(e.NotBalanced), seconds(e.Balanced), seconds(e.Optimal))
	}
	sssp, _ := r.Entry("SSSP-BF")
	fmt.Fprintf(&b, "SSSP-BF balancing gain (Not Balanced / Balanced): %s\n", ratio(sssp.NotBalanced, sssp.Balanced))
	return b.String()
}

// Fig 13: runtime isolation — the persistent daemon versus re-initializing
// the device on every call ("Raw call"), SSSP-BF for 11 iterations.

// Fig13Result holds the two bars with their init/compute split.
type Fig13Result struct {
	bars map[string]fig13Bar // by mode
}

type fig13Bar struct{ init, comp time.Duration }

// fig13Iterations matches the paper's 11-iteration comparison.
const fig13Iterations = 11

// Fig13 runs the comparison.
func Fig13(o Options) (*Fig13Result, error) {
	g, err := load(gen.Orkut, o)
	if err != nil {
		return nil, err
	}
	alg := algos.NewSSSPBF(algos.DefaultSources(g.NumVertices()))
	res := &Fig13Result{bars: map[string]fig13Bar{}}
	for _, raw := range []bool{false, true} {
		opts := gxplug.GPUOptions(o.Scale, 1)
		opts.RawCall = raw
		run, err := powergraph.Run(engine.Config{
			Nodes: 1, Graph: g, Alg: alg,
			Plug: []gxplug.Options{opts}, MaxIter: fig13Iterations,
		})
		if err != nil {
			return nil, err
		}
		if !raw {
			res.bars["Daemon"] = fig13Bar{run.AgentStats[0].DeviceInit, run.Time}
			continue
		}
		// Both modes do identical computation; everything the raw-call
		// run pays beyond the daemon run's computation is repeated device
		// initialization.
		comp := res.bars["Daemon"].comp
		res.bars["Raw call"] = fig13Bar{max(run.Time-comp, 0), comp}
	}
	return res, nil
}

// Entry finds a mode's bar.
func (r *Fig13Result) Entry(mode string) (init, comp, total time.Duration, ok bool) {
	e, ok := r.bars[mode]
	return e.init, e.comp, e.init + e.comp, ok
}

// String renders the bars.
func (r *Fig13Result) String() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Fig 13: Runtime Isolation (SSSP-BF, %d iterations)", fig13Iterations),
		"Mode", "GPU Init", "Comp Time", "Total")
	for _, mode := range []string{"Daemon", "Raw call"} {
		init, comp, total, _ := r.Entry(mode)
		fmt.Fprintf(&b, "%-16s%-16s%-16s%-16s\n", mode, seconds(init), seconds(comp), seconds(total))
	}
	_, _, daemon, _ := r.Entry("Daemon")
	_, _, raw, _ := r.Entry("Raw call")
	fmt.Fprintf(&b, "Raw call slowdown over Daemon (Total): %s\n", ratio(raw, daemon))
	return b.String()
}
