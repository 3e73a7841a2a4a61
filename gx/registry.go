package gx

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file is the registry layer: every name a Scenario refers to —
// engine, algorithm, dataset, accelerator profile, network — resolves
// through one of the registries below. Built-ins self-register in
// builtins.go; user code extends the same registries (typically from an
// init function), after which the new names are addressable from
// scenario files and CLI flags exactly like the built-ins.

// registry is a concurrency-safe name → definition map shared by all
// registrable kinds.
type registry[T any] struct {
	kind string
	mu   sync.RWMutex
	m    map[string]T
}

func newRegistry[T any](kind string) *registry[T] {
	return &registry[T]{kind: kind, m: make(map[string]T)}
}

// add registers a definition. Registration conflicts are programmer
// errors, not runtime input, so it panics on empty or duplicate names.
func (r *registry[T]) add(name string, v T) {
	if name == "" {
		panic(fmt.Sprintf("gx: register %s with empty name", r.kind))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("gx: %s %q registered twice", r.kind, name))
	}
	r.m[name] = v
}

// lookup resolves a name; unknown names error with the registered list,
// so every "unknown X" message doubles as discovery.
func (r *registry[T]) lookup(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("gx: unknown %s %q (registered: %s)",
			r.kind, name, strings.Join(r.names(), ", "))
	}
	return v, nil
}

// names lists registered names, sorted.
func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EngineDef registers one upper system.
type EngineDef struct {
	// Name is the scenario key (e.g. "powergraph").
	Name string
	// Spec returns the engine's calibrated model, including its
	// computation-model order and default partitioner.
	Spec func() EngineSpec
}

// AlgoParams are the declarative parameters a scenario can hand an
// algorithm factory. Factories ignore fields they have no use for.
type AlgoParams struct {
	// K parameterizes k-bounded algorithms (the k of k-core, the hop
	// bound of BFS). Zero selects the algorithm's default.
	K int `json:"k,omitempty"`
	// Sources lists source vertex ids for sourced algorithms (SSSP, BFS);
	// empty selects the paper's default source set.
	Sources []int64 `json:"sources,omitempty"`
}

// AlgorithmDef registers one algorithm factory.
type AlgorithmDef struct {
	// Name is the scenario key (e.g. "pagerank").
	Name string
	// Check validates params without a graph; nil means no graph-free
	// validation. Scenario.Validate and NewAlgorithm call it.
	Check func(p AlgoParams) error
	// New builds the algorithm for a graph with numV vertices, from
	// params that passed Check. It must return an error — never panic —
	// on bad params: scenario input is runtime data.
	New func(p AlgoParams, numV int) (Algorithm, error)
}

// DatasetDef registers one loadable dataset.
type DatasetDef struct {
	// Name is the scenario key (e.g. "orkut").
	Name string
	// Load builds the graph at 1/scale of the dataset's full size.
	Load func(scale, seed int64) (*Graph, error)
}

// AccelConfig carries the scenario fields an accelerator profile may
// consult when building a node's middleware options.
type AccelConfig struct {
	// Scale is the dataset scale divisor (profiles scale device memory
	// with it so OOM boundaries track the data).
	Scale int64
	// GPUs is the requested daemon count for GPU profiles.
	GPUs int
}

// AcceleratorDef registers one accelerator profile.
type AcceleratorDef struct {
	// Name is the scenario key (e.g. "gpu").
	Name string
	// Plug returns the middleware options for one node, or nil for native
	// (unplugged) execution. It must be a cheap, side-effect-free
	// constructor: Scenario.Validate dry-runs it.
	Plug func(c AccelConfig) (*PlugOptions, error)
}

var (
	engineReg  = newRegistry[EngineDef]("engine")
	algoReg    = newRegistry[AlgorithmDef]("algorithm")
	datasetReg = newRegistry[DatasetDef]("dataset")
	accelReg   = newRegistry[AcceleratorDef]("accelerator")
	networkReg = newRegistry[Network]("network")
)

// RegisterEngine adds an upper system to the engine registry. It panics
// on an empty or duplicate name or a nil Spec.
func RegisterEngine(d EngineDef) {
	if d.Spec == nil {
		panic(fmt.Sprintf("gx: engine %q with nil Spec", d.Name))
	}
	engineReg.add(d.Name, d)
}

// RegisterAlgorithm adds an algorithm factory to the registry. It panics
// on an empty or duplicate name or a nil New.
func RegisterAlgorithm(d AlgorithmDef) {
	if d.New == nil {
		panic(fmt.Sprintf("gx: algorithm %q with nil New", d.Name))
	}
	algoReg.add(d.Name, d)
}

// RegisterDataset adds a dataset loader to the registry. It panics on an
// empty or duplicate name or a nil Load.
func RegisterDataset(d DatasetDef) {
	if d.Load == nil {
		panic(fmt.Sprintf("gx: dataset %q with nil Load", d.Name))
	}
	datasetReg.add(d.Name, d)
}

// RegisterAccelerator adds an accelerator profile to the registry. It
// panics on an empty or duplicate name or a nil Plug.
func RegisterAccelerator(d AcceleratorDef) {
	if d.Plug == nil {
		panic(fmt.Sprintf("gx: accelerator %q with nil Plug", d.Name))
	}
	accelReg.add(d.Name, d)
}

// RegisterNetwork adds a named interconnect model to the registry. It
// panics on an empty or duplicate name.
func RegisterNetwork(name string, spec Network) { networkReg.add(name, spec) }

// Engines lists the registered engine names, sorted.
func Engines() []string { return engineReg.names() }

// Algorithms lists the registered algorithm names, sorted.
func Algorithms() []string { return algoReg.names() }

// Datasets lists the registered dataset names, sorted.
func Datasets() []string { return datasetReg.names() }

// Accelerators lists the registered accelerator profile names, sorted.
func Accelerators() []string { return accelReg.names() }

// Networks lists the registered network names, sorted.
func Networks() []string { return networkReg.names() }

// NewAlgorithm builds a registered algorithm for a graph with numV
// vertices.
func NewAlgorithm(name string, p AlgoParams, numV int) (Algorithm, error) {
	def, err := algoReg.lookup(name)
	if err != nil {
		return nil, err
	}
	if def.Check != nil {
		if err := def.Check(p); err != nil {
			return nil, fmt.Errorf("gx: algorithm %q: %w", name, err)
		}
	}
	alg, err := def.New(p, numV)
	if err != nil {
		return nil, fmt.Errorf("gx: algorithm %q: %w", name, err)
	}
	return alg, nil
}

// LoadDataset loads a registered dataset at 1/scale of its full size,
// or — when name uses the `file:` kind (file:PATH, file+snapshot:PATH,
// file+edgelist:PATH) — reads the graph from disk through a single-use
// [DatasetCache]; scale and seed do not apply to a file and are ignored.
func LoadDataset(name string, scale, seed int64) (*Graph, error) {
	if _, ok, _ := parseFileRef(name); ok {
		return NewDatasetCache().Graph(name, scale, seed)
	}
	def, err := datasetReg.lookup(name)
	if err != nil {
		return nil, err
	}
	g, err := def.Load(scale, seed)
	if err != nil {
		return nil, fmt.Errorf("gx: dataset %q: %w", name, err)
	}
	return g, nil
}
