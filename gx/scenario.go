package gx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Defaults applied by Scenario.WithDefaults for zero-valued fields.
const (
	// DefaultScale is the dataset scale divisor used across the repo.
	DefaultScale = 1000
	// DefaultSeed is the generator seed the CLIs and harness default to.
	// Scenario.Seed is NOT defaulted to it: seed 0 is a valid seed and is
	// honored as written.
	DefaultSeed = 42
	// DefaultNetwork is the 10GbE-class datacenter interconnect.
	DefaultNetwork = "datacenter"
	// DefaultAccel is native (unplugged) execution.
	DefaultAccel = "none"
)

// Toggles switch the middleware's optimizations individually. A nil
// *Toggles in a Scenario leaves each accelerator profile's defaults (all
// optimizations on); a non-nil value overrides all four flags.
type Toggles struct {
	// Pipeline enables pipeline shuffle (§III-A).
	Pipeline bool `json:"pipeline"`
	// Caching enables synchronization caching + lazy uploading (§III-B2).
	Caching bool `json:"caching"`
	// Skipping enables synchronization skipping (§III-B3).
	Skipping bool `json:"skipping"`
	// OptimalBlockSize selects the Lemma 1 block count each iteration.
	OptimalBlockSize bool `json:"optimal_block_size"`
}

// AllOptimizations returns toggles with every optimization on — what the
// accelerator profiles default to.
func AllOptimizations() *Toggles {
	return &Toggles{Pipeline: true, Caching: true, Skipping: true, OptimalBlockSize: true}
}

// NoOptimizations returns toggles with every optimization off (the
// paper's naive-integration comparison point).
func NoOptimizations() *Toggles { return &Toggles{} }

// apply overrides the optimization flags of one node's plug options.
func (t *Toggles) apply(o *PlugOptions) {
	o.Pipeline = t.Pipeline
	o.Caching = t.Caching
	o.Skipping = t.Skipping
	o.OptimalBlockSize = t.OptimalBlockSize
}

// Scenario is the declarative description of one run. Every string field
// resolves through a registry; the zero value of an optional field means
// "default" (documented per field). Scenarios round-trip through JSON —
// `gxrun -scenario file.json` and programmatic callers describe runs
// identically — and map onto the engine configuration via Run.
type Scenario struct {
	// Engine names a registered upper system ("graphx", "powergraph").
	Engine string `json:"engine"`
	// Algorithm names a registered algorithm; Params parameterize it.
	Algorithm string     `json:"algorithm"`
	Params    AlgoParams `json:"params,omitzero"`
	// Dataset names a registered dataset, generated at 1/Scale of its
	// full size (0 → DefaultScale) with Seed. Every seed value, including
	// 0, is honored as written (the CLIs default their -seed flag to
	// DefaultSeed).
	Dataset string `json:"dataset"`
	Scale   int64  `json:"scale,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Nodes is the distributed cluster size (at most maxNodes).
	Nodes int `json:"nodes"`
	// Accel names a registered accelerator profile applied to every node
	// ("" → "none"); GPUs is the daemon count for GPU profiles (0 → 1,
	// at most maxGPUs).
	Accel string `json:"accel,omitempty"`
	GPUs  int    `json:"gpus,omitempty"`
	// Mix lists one accelerator profile per node for heterogeneous
	// clusters; when set it must have exactly Nodes entries and overrides
	// Accel. Native ("none") entries cannot be mixed with plugged ones.
	Mix []string `json:"mix,omitempty"`
	// MaxIter caps iterations on top of the algorithm's own cap (0 = no
	// extra cap).
	MaxIter int `json:"maxiter,omitempty"`
	// CacheCapacity bounds each agent's synchronization cache to that
	// many attribute rows (0 = size the cache to the node's full vertex
	// table, the common deployment). The cache is LRU; dirty evictions
	// are spilled and uploaded at serialized phase boundaries, so a
	// bounded run produces results bit-identical to the unbounded one
	// while trading boundary traffic for memory. A capacity above a
	// node's vertex table is that table: nothing is sized by this number.
	// Under [WithCheckpoint] each cut flushes and then empties a cache
	// that evicts, which is what lets [Resume] reproduce the run. Only
	// meaningful with caching enabled: it requires an accelerator profile
	// and rejects Opt.Caching == false.
	CacheCapacity int `json:"cache_capacity,omitempty"`
	// Network names a registered interconnect ("" → "datacenter").
	Network string `json:"network,omitempty"`
	// Opt overrides the optimization toggles of every plugged node; nil
	// keeps the profile defaults (all on).
	Opt *Toggles `json:"opt,omitempty"`
	// Faults is the deterministic fault-injection plan: each entry is
	// armed on its node's middleware agent at the top of its superstep.
	// Requires an accelerator profile (faults live in the middleware;
	// native execution has nothing to fault).
	Faults []FaultSpec `json:"faults,omitempty"`
	// Batches turns the run dynamic: the dataset is the initial graph
	// version, and each timestamped edge batch opens a new boundary that
	// is recomputed (incrementally by default) on the evolved graph.
	// Requires native execution (Accel "none", no Mix) and no Faults.
	Batches *BatchSpec `json:"batches,omitempty"`
}

// FaultSpec schedules one injected fault in a scenario's plan. Kind is
// one of [FaultDaemonCrash] ("daemon-crash"), [FaultMsgStall]
// ("msg-stall") or [FaultAccelOOM] ("accel-oom"); Param refines it —
// the daemon index for daemon-crash, the stall count for msg-stall.
// Fatal kinds surface from Run as a typed [FaultError]; recoverable
// ones (msg-stall within the retry budget) degrade deterministically
// on the virtual clock.
type FaultSpec struct {
	Kind      string `json:"kind"`
	Node      int    `json:"node"`
	Superstep int    `json:"superstep"`
	Param     int64  `json:"param,omitempty"`
}

// WithDefaults returns the scenario with zero-valued optional fields
// replaced by their documented defaults. Run and Validate apply it
// internally; callers only need it to inspect the effective values.
func (s Scenario) WithDefaults() Scenario {
	if s.Scale == 0 {
		s.Scale = DefaultScale
	}
	if s.Accel == "" {
		s.Accel = DefaultAccel
	}
	if s.Network == "" {
		s.Network = DefaultNetwork
	}
	if s.GPUs == 0 {
		s.GPUs = 1
	}
	return s
}

// Validate checks the scenario against the registries and reports every
// problem found (joined), not just the first.
func (s Scenario) Validate() error {
	return s.WithDefaults().validate(provided{})
}

// maxGPUs bounds Scenario.GPUs. Validation dry-runs the accelerator
// profile, which builds one device model per daemon, so an unbounded
// count in a submitted scenario would make validation itself the
// expensive step.
const maxGPUs = 64

// maxNodes bounds Scenario.Nodes. A run sizes m×m state from it before
// the first superstep (the pairwise exchange-volume matrix, m buffers per
// node's GenResult): unbounded, a submitted scenario runs the process —
// a daemon and every job queued on it — out of memory, which is a fatal
// error, not a recoverable panic. 1024 keeps the volume matrix at 8 MB.
const maxNodes = 1024

// provided records which scenario fields a Run call overrides with
// functional options, so validation skips requirements the options
// already satisfy.
type provided struct {
	graph bool // WithGraph: Dataset/Scale not consulted
	plug  bool // WithPlug: Accel/GPUs/Mix not consulted
}

// validate checks a defaults-applied scenario.
func (s Scenario) validate(have provided) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("scenario: "+format, args...))
	}

	if s.Nodes < 1 || s.Nodes > maxNodes {
		fail("nodes %d (want 1..%d)", s.Nodes, maxNodes)
	}
	if s.Scale < 1 {
		fail("scale %d (want ≥ 1)", s.Scale)
	}
	if s.MaxIter < 0 {
		fail("maxiter %d (want ≥ 0)", s.MaxIter)
	}
	if s.CacheCapacity < 0 {
		fail("cache_capacity %d (want ≥ 0)", s.CacheCapacity)
	}
	for i, f := range s.Faults {
		switch f.Kind {
		case FaultDaemonCrash, FaultMsgStall, FaultAccelOOM:
		default:
			fail("fault %d: unknown kind %q (want %q, %q or %q)",
				i, f.Kind, FaultDaemonCrash, FaultMsgStall, FaultAccelOOM)
		}
		if f.Node < 0 || (s.Nodes > 0 && f.Node >= s.Nodes) {
			fail("fault %d: node %d of %d", i, f.Node, s.Nodes)
		}
		if f.Superstep < 0 {
			fail("fault %d: superstep %d (want ≥ 0)", i, f.Superstep)
		}
	}

	if _, err := engineReg.lookup(s.Engine); err != nil {
		errs = append(errs, err)
	}
	if def, err := algoReg.lookup(s.Algorithm); err != nil {
		errs = append(errs, err)
	} else if def.Check != nil {
		if err := def.Check(s.Params); err != nil {
			fail("algorithm %q: %v", s.Algorithm, err)
		}
	}
	if !have.graph {
		if ref, ok, err := datasetRef(s.Dataset); err != nil {
			errs = append(errs, err)
		} else if ok {
			// A file reference: well-formed, and the path a regular file.
			if _, err := ref.stat(); err != nil {
				fail("dataset %q: %w", s.Dataset, err)
			}
		} else if _, err := datasetReg.lookup(s.Dataset); err != nil {
			errs = append(errs, err)
		}
	}
	if !have.plug {
		if s.GPUs < 1 || s.GPUs > maxGPUs {
			fail("gpus %d (want 1..%d)", s.GPUs, maxGPUs)
		} else if len(s.Mix) > 0 && s.Nodes > 0 && len(s.Mix) != s.Nodes {
			fail("mix has %d entries for %d nodes", len(s.Mix), s.Nodes)
		} else if ps, err := s.plugs(); err != nil {
			errs = append(errs, err)
		} else if len(s.Faults) > 0 && ps == nil {
			// Faults are middleware events: arming one on a native node
			// would be a silent no-op.
			fail("faults require an accelerator (native execution has no middleware to fault)")
		} else if s.CacheCapacity > 0 {
			// The bound only means something when there is a cache to
			// bound: a plugged run with caching on.
			if ps == nil {
				fail("cache_capacity %d requires an accelerator (native execution has no synchronization cache)", s.CacheCapacity)
			} else {
				caching := false
				for _, p := range ps {
					caching = caching || p.Caching
				}
				if !caching {
					fail("cache_capacity %d with caching disabled", s.CacheCapacity)
				}
			}
		}
	}
	if _, err := networkReg.lookup(s.Network); err != nil {
		errs = append(errs, err)
	}
	if s.Batches != nil {
		s.Batches.validate(fail)
		// Incremental replay is an engine-native mechanism: the trace
		// carries authoritative state the middleware path never sees, and
		// a fault plan would make boundaries non-replayable.
		if !have.plug && (s.Accel != DefaultAccel || len(s.Mix) > 0) {
			fail("batches require native execution (accel %q)", s.Accel)
		}
		if len(s.Faults) > 0 {
			fail("batches cannot be combined with fault injection")
		}
	}
	return errors.Join(errs...)
}

// plugs builds the per-node middleware options from the accelerator
// profile (one shared entry) or the mix (one entry per node), applying
// the scenario's optimization toggles. A nil result means native
// execution. Mixes combining native and plugged nodes are rejected: the
// engine plugs all nodes or none. Validate dry-runs this, which is why
// AcceleratorDef.Plug must be a cheap, side-effect-free constructor.
func (s Scenario) plugs() ([]PlugOptions, error) {
	if len(s.Mix) > 0 && s.Nodes > 0 && len(s.Mix) != s.Nodes {
		return nil, fmt.Errorf("scenario: mix has %d entries for %d nodes", len(s.Mix), s.Nodes)
	}
	cfg := AccelConfig{Scale: s.Scale, GPUs: s.GPUs}
	build := func(name string) (*PlugOptions, error) {
		def, err := accelReg.lookup(name)
		if err != nil {
			return nil, err
		}
		p, err := def.Plug(cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario: accelerator %q: %w", name, err)
		}
		if p != nil && s.Opt != nil {
			s.Opt.apply(p)
		}
		return p, nil
	}

	if len(s.Mix) == 0 {
		p, err := build(s.Accel)
		if err != nil || p == nil {
			return nil, err
		}
		return []PlugOptions{*p}, nil
	}

	out := make([]PlugOptions, 0, len(s.Mix))
	native := 0
	for _, name := range s.Mix {
		p, err := build(name)
		if err != nil {
			return nil, err
		}
		if p == nil {
			native++
			continue
		}
		out = append(out, *p)
	}
	if native == len(s.Mix) {
		return nil, nil
	}
	if native != 0 {
		return nil, fmt.Errorf("scenario: mix combines native and plugged nodes (%d of %d native); plug all nodes or none", native, len(s.Mix))
	}
	return out, nil
}

// ParseScenario decodes a scenario from JSON. Unknown fields are errors,
// so typos in scenario files fail loudly instead of silently defaulting.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("gx: parse scenario: %w", err)
	}
	return s, nil
}

// LoadScenario reads and decodes a scenario file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("gx: load scenario: %w", err)
	}
	s, err := ParseScenario(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// JSON encodes the scenario as indented JSON. ParseScenario(s.JSON())
// reproduces s exactly.
func (s Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
