// Package lux models the Lux comparator of Fig 9: a distributed
// multi-GPU graph engine (Jia et al., VLDB 2017). Lux's strength is GPU
// internals — efficient fused kernels close to Gunrock's — but, as the
// paper observes, it lacks a mature distributed substrate: every
// iteration performs a full-volume synchronization of updated vertex
// state to every GPU, with none of GX-Plug's caching, lazy uploading or
// skipping. That full sync is why PowerGraph+GX-Plug overtakes it beyond
// two GPUs (Fig 9a) and why its lead shrinks on the big graphs of Fig 9b.
package lux

import (
	"fmt"
	"time"

	"gxplug/internal/device"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
	"gxplug/internal/simtime"
)

// Efficiency is Lux's per-edge kernel cost factor (close to Gunrock's
// hardwired primitives, slightly heavier for distribution hooks).
const Efficiency = 0.55

// GPUsPerNode mirrors the paper's testbed: two V100s per physical node;
// synchronization beyond a node pays network bandwidth instead of NVLink.
const GPUsPerNode = 2

// ReplicationFactor is the per-GPU memory overhead of Lux's partitioned
// store (halo regions and frontier double-buffering).
const ReplicationFactor = 1.6

// Config describes one Lux run.
type Config struct {
	Graph *graph.Graph
	Alg   template.Algorithm
	GPUs  int
	// Device overrides the GPU model (default V100).
	Device device.Spec
	// Net is the inter-node bandwidth in bytes/s (default 10GbE).
	NetBandwidth float64
	MaxIter      int
}

// Result is a completed Lux run.
type Result struct {
	Attrs      []float64
	Iterations int
	Time       time.Duration
	// SyncTime is the share of Time spent in the per-iteration full
	// synchronization — the cost GX-Plug's inter-iteration optimizations
	// attack.
	SyncTime time.Duration
}

// Run executes the workload across cfg.GPUs simulated GPUs.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil || cfg.Alg == nil {
		return nil, fmt.Errorf("lux: nil graph or algorithm")
	}
	if cfg.GPUs < 1 {
		return nil, fmt.Errorf("lux: %d GPUs", cfg.GPUs)
	}
	spec := cfg.Device
	if spec.Name == "" {
		spec = device.V100()
	}
	net := cfg.NetBandwidth
	if net <= 0 {
		net = 1.25e9 // 10GbE
	}
	devs := make([]*device.Device, cfg.GPUs)
	perGPU := int64(float64(cfg.Graph.MemoryFootprint(cfg.Alg.AttrWidth())) * ReplicationFactor / float64(cfg.GPUs))
	for i := range devs {
		devs[i] = device.New(spec)
		devs[i].Init()
		if err := devs[i].Alloc(perGPU); err != nil {
			return nil, fmt.Errorf("lux: GPU %d: %w", i, err)
		}
	}
	defer func() {
		for _, d := range devs {
			d.Shutdown()
		}
	}()

	hints := cfg.Alg.Hints()
	aw := cfg.Alg.AttrWidth()
	nodes := (cfg.GPUs + GPUsPerNode - 1) / GPUsPerNode
	// Range partitioning without dynamic repartitioning leaves imbalance;
	// the slowest GPU paces the iteration.
	const imbalance = 1.35
	const netLatency = 50 * time.Microsecond
	// Host-side per-iteration work: frontier management, push/pull mode
	// selection, kernel configuration — Lux drives these from the CPU
	// every iteration.
	const hostPerIter = 100 * time.Microsecond
	var total, sync time.Duration
	attrs, iters := template.Drive(cfg.Graph, cfg.Alg, func(st template.IterStats) bool {
		// Compute: frontier split across GPUs, pay the slowest shard.
		share := float64(st.Edges)/float64(cfg.GPUs)*imbalance + 1
		ops := share * hints.OpsPerEdge * Efficiency
		launch, err := devs[0].Launch(int(share), 0, 0, 0, nil)
		if err != nil {
			return false
		}
		iterCost := hostPerIter + launch + time.Duration(ops/devs[0].EffectiveRate(int(share))*float64(time.Second))
		// Full synchronization: every updated vertex row travels to every
		// other GPU — NVLink inside a node, the wire across nodes — with
		// no caching, no lazy upload, no skipping. Every iteration also
		// pays the distributed barrier; Lux has no skipping to elide it.
		rowBytes := int64(st.Changed) * gxplug.RowBytes(aw)
		if cfg.GPUs > 1 {
			var s time.Duration
			nvlinkPeers := GPUsPerNode - 1
			s += simtime.TimeFor(float64(rowBytes*int64(nvlinkPeers)), spec.CopyBandwidth)
			if nodes > 1 {
				// Naive per-GPU transfers: the updated volume crosses the
				// wire once per remote GPU — Lux lacks the node-level
				// aggregation a mature distributed substrate would do.
				remoteGPUs := cfg.GPUs - GPUsPerNode
				if remoteGPUs < 1 {
					remoteGPUs = 1
				}
				s += simtime.TimeFor(float64(rowBytes*int64(remoteGPUs)), net)
				s += time.Duration(remoteGPUs) * netLatency
			}
			if nodes > 1 {
				s += time.Duration(simtime.Log2Ceil(nodes))*netLatency + 200*time.Microsecond // distributed barrier
			} else {
				s += 20 * time.Microsecond // same-node stream synchronization
			}
			sync += s
			iterCost += s
		}
		total += iterCost
		return cfg.MaxIter == 0 || st.Iteration+1 < cfg.MaxIter
	})
	return &Result{Attrs: attrs, Iterations: iters, Time: total, SyncTime: sync}, nil
}
