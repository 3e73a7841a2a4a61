// Package gunrock models the Gunrock comparator of Fig 9: a single-node,
// single-GPU, frontier-centric graph engine with hand-tuned hardwired
// primitives. It is the fastest system at one GPU — its fused kernels
// give it a per-edge efficiency no middleware path matches — but it has
// no multi-GPU mode ("No Config" beyond one GPU in Fig 9a) and it OOMs
// on graphs that exceed a single device's memory (Fig 9b: Twitter and
// UK-2007).
package gunrock

import (
	"errors"
	"fmt"
	"time"

	"gxplug/internal/device"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// ErrNoMultiGPU reports a request for more than one GPU — the "No
// Config" entries of Fig 9.
var ErrNoMultiGPU = errors.New("gunrock: multi-GPU configurations are not supported")

// Efficiency is the per-edge cost factor of Gunrock's fused, hardwired
// kernels relative to the generic template kernels (lower = faster).
const Efficiency = 0.45

// Config describes one Gunrock run.
type Config struct {
	Graph *graph.Graph
	Alg   template.Algorithm
	// GPUs must be 1; anything else fails with ErrNoMultiGPU.
	GPUs int
	// Device overrides the GPU model (default V100).
	Device device.Spec
	// MaxIter caps iterations (0 = run to convergence).
	MaxIter int
}

// Result is a completed Gunrock run.
type Result struct {
	Attrs      []float64
	Iterations int
	Time       time.Duration
}

// Run executes the workload or fails with ErrNoMultiGPU /
// device.ErrOutOfMemory, mirroring the failure modes the paper tabulates.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil || cfg.Alg == nil {
		return nil, fmt.Errorf("gunrock: nil graph or algorithm")
	}
	if cfg.GPUs != 1 {
		return nil, fmt.Errorf("gunrock: %d GPUs: %w", cfg.GPUs, ErrNoMultiGPU)
	}
	spec := cfg.Device
	if spec.Name == "" {
		spec = device.V100()
	}
	dev := device.New(spec)
	dev.Init()
	// The whole graph plus attributes must fit the single GPU.
	if err := dev.Alloc(cfg.Graph.MemoryFootprint(cfg.Alg.AttrWidth())); err != nil {
		return nil, fmt.Errorf("gunrock: %s: %w", spec.Name, err)
	}
	defer dev.Shutdown()

	hints := cfg.Alg.Hints()
	var total time.Duration
	attrs, iters := template.Drive(cfg.Graph, cfg.Alg, func(st template.IterStats) bool {
		// One fused launch per iteration: advance + filter in one kernel,
		// everything resident on-device (no copies after load).
		edgeOps := float64(st.Edges) * hints.OpsPerEdge * Efficiency
		vertOps := float64(st.Applied) * hints.OpsPerVertex * Efficiency
		cost, err := dev.Launch(st.Edges+st.Applied, 0, 0, 0, nil)
		if err != nil {
			return false
		}
		total += cost
		total += time.Duration((edgeOps + vertOps) / spec.EffectiveRate(st.Edges+st.Applied) * float64(time.Second))
		return cfg.MaxIter == 0 || st.Iteration+1 < cfg.MaxIter
	})
	return &Result{Attrs: attrs, Iterations: iters, Time: total}, nil
}
