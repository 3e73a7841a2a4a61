package gx

import (
	"fmt"
	"time"

	"gxplug/internal/algos"
	"gxplug/internal/cluster"
	"gxplug/internal/engine/graphx"
	"gxplug/internal/engine/powergraph"
	"gxplug/internal/gen"
)

// The built-ins self-register through the same entry points user code
// uses — the registries are the only wiring.
func init() {
	registerBuiltinEngines()
	registerBuiltinAlgorithms()
	registerBuiltinDatasets()
	registerBuiltinAccelerators()
	registerBuiltinNetworks()
}

func registerBuiltinEngines() {
	RegisterEngine(EngineDef{Name: "graphx", Spec: graphx.Spec})
	RegisterEngine(EngineDef{Name: "powergraph", Spec: powergraph.Spec})
}

func registerBuiltinAlgorithms() {
	RegisterAlgorithm(AlgorithmDef{
		Name: "pagerank",
		New: func(AlgoParams, int) (Algorithm, error) {
			return algos.NewPageRank(), nil
		},
	})
	RegisterAlgorithm(AlgorithmDef{
		Name:  "sssp",
		Check: checkSources,
		New: func(p AlgoParams, numV int) (Algorithm, error) {
			srcs, err := algos.Sources(p.Sources, numV)
			if err != nil {
				return nil, err
			}
			return algos.NewSSSPBF(srcs), nil
		},
	})
	RegisterAlgorithm(AlgorithmDef{
		Name: "lp",
		New: func(AlgoParams, int) (Algorithm, error) {
			return algos.NewLP(), nil
		},
	})
	RegisterAlgorithm(AlgorithmDef{
		Name: "cc",
		New: func(AlgoParams, int) (Algorithm, error) {
			return algos.NewCC(), nil
		},
	})
	RegisterAlgorithm(AlgorithmDef{
		Name: "kcore",
		// K defaults to 3 (the CLI's historical default); negative k is
		// the "bad k" validation error.
		Check: func(p AlgoParams) error {
			if p.K < 0 {
				return fmt.Errorf("k %d (want ≥ 1, or 0 for the default)", p.K)
			}
			return nil
		},
		New: func(p AlgoParams, _ int) (Algorithm, error) {
			k := p.K
			if k == 0 {
				k = 3
			}
			return algos.NewKCore(k), nil
		},
	})
	RegisterAlgorithm(AlgorithmDef{
		Name: "bfs",
		// K is the hop bound; 0 means unbounded BFS.
		Check: func(p AlgoParams) error {
			if p.K < 0 {
				return fmt.Errorf("hop bound %d (want ≥ 0)", p.K)
			}
			return checkSources(p)
		},
		New: func(p AlgoParams, numV int) (Algorithm, error) {
			srcs, err := algos.Sources(p.Sources, numV)
			if err != nil {
				return nil, err
			}
			return algos.NewKHopBFS(srcs, p.K), nil
		},
	})
}

// checkSources is the graph-free half of source validation: ids must be
// non-negative (the upper bound needs the graph and is checked by New).
func checkSources(p AlgoParams) error {
	for _, id := range p.Sources {
		if id < 0 {
			return fmt.Errorf("source %d (want ≥ 0)", id)
		}
	}
	return nil
}

func registerBuiltinDatasets() {
	for _, d := range gen.Datasets() {
		RegisterDataset(DatasetDef{
			Name: string(d),
			Load: func(scale, seed int64) (*Graph, error) {
				return gen.Load(d, scale, seed)
			},
		})
	}
}

func registerBuiltinAccelerators() {
	RegisterAccelerator(AcceleratorDef{
		Name: "none",
		Plug: func(AccelConfig) (*PlugOptions, error) { return nil, nil },
	})
	RegisterAccelerator(AcceleratorDef{
		Name: "cpu",
		Plug: func(AccelConfig) (*PlugOptions, error) {
			o := CPUPlug()
			return &o, nil
		},
	})
	RegisterAccelerator(AcceleratorDef{
		Name: "gpu",
		Plug: func(c AccelConfig) (*PlugOptions, error) {
			if c.GPUs < 1 {
				return nil, fmt.Errorf("%d GPU daemons (want ≥ 1)", c.GPUs)
			}
			o := GPUPlug(c.Scale, c.GPUs)
			return &o, nil
		},
	})
}

func registerBuiltinNetworks() {
	// The default 10GbE-class cluster fabric of the evaluation.
	RegisterNetwork("datacenter", cluster.DatacenterNet())
	// A 100Gb/s HPC-class fabric: low latency, fast barriers.
	RegisterNetwork("hpc", Network{
		Latency:         5 * time.Microsecond,
		Bandwidth:       12.5e9,
		BarrierOverhead: 10 * time.Microsecond,
	})
	// A commodity 1GbE network: the regime where synchronization skipping
	// and caching matter most.
	RegisterNetwork("commodity-1g", Network{
		Latency:         200 * time.Microsecond,
		Bandwidth:       0.125e9,
		BarrierOverhead: 200 * time.Microsecond,
	})
}
