package gx

import (
	"fmt"

	"gxplug/internal/cluster"
	"gxplug/internal/device"
	"gxplug/internal/engine"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/balance"
	"gxplug/internal/gxplug/template"
)

// The public names for the repository's core vocabulary. They alias the
// internal definitions, so values flow between gx and the engine without
// conversion, while external importers never name an internal package.
type (
	// Graph is the immutable CSR graph all engines run over.
	Graph = graph.Graph
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Edge is one directed, weighted edge.
	Edge = graph.Edge
	// Partitioning assigns masters and edges to distributed nodes.
	Partitioning = graph.Partitioning

	// Algorithm is the GX-Plug three-function template (§IV-A1) an
	// algorithm implements: MSGGen, MSGMerge, MSGApply over flat float64
	// rows.
	Algorithm = template.Algorithm
	// Context carries per-iteration information into template calls.
	Context = template.Context
	// Hints tell engines how to drive and cost an algorithm, and carry
	// its declared properties: Incremental (safe for trajectory replay),
	// SourceOnly (the message MSGGen writes depends on the source alone,
	// so executors call it once per source, not once per edge) and Merge
	// (the operator MSGMerge computes, so executors fold without calling
	// it).
	Hints = template.Hints
	// MergeOp is the operator [Hints].Merge declares.
	MergeOp = template.MergeOp
	// Sourced is implemented by algorithms that start from source vertices.
	Sourced = template.Sourced

	// Result is the outcome of a run.
	Result = engine.Result
	// EngineSpec is the calibrated model of one upper system.
	EngineSpec = engine.Spec
	// FaultError is the typed failure an unabsorbed injected fault
	// surfaces as: kind, node, superstep.
	FaultError = engine.FaultError
	// CheckpointState is a consistent superstep-boundary cut of a run,
	// captured by [WithCheckpoint] and continued by [Resume].
	CheckpointState = engine.CheckpointState
	// NodeClock is one node's captured virtual-time accounting.
	NodeClock = engine.NodeClock
	// Superstep is the per-superstep progress report an Observer receives.
	Superstep = engine.SuperstepInfo
	// Observer receives one Superstep after every iteration. Nil costs
	// nothing.
	Observer = engine.Observer

	// Network models the cluster interconnect.
	Network = cluster.NetworkSpec
	// PlugOptions configure the middleware agent of one node.
	PlugOptions = gxplug.Options
	// DeviceSpec is the calibrated model of one accelerator.
	DeviceSpec = device.Spec
	// AgentStats is one node's middleware counts summed over the
	// supersteps a run reported (Result.AgentStats), so they sum to
	// what the run's Superstep reports carry; setup counts nowhere.
	AgentStats = gxplug.Stats
)

// The operators [Hints].Merge may declare.
const (
	// MergeCustom declares nothing: executors call MSGMerge per message.
	MergeCustom = template.MergeCustom
	// MergeSum declares MSGMerge to be acc[i] += msg[i].
	MergeSum = template.MergeSum
	// MergeMin declares MSGMerge to be if msg[i] < acc[i] { acc[i] = msg[i] }.
	MergeMin = template.MergeMin
)

// Fault kinds a scenario's fault plan may schedule (see [FaultSpec]).
const (
	// FaultDaemonCrash kills one accelerator daemon on the node. Fatal.
	FaultDaemonCrash = engine.FaultDaemonCrash
	// FaultMsgStall stalls daemon control messages; absorbed by a
	// bounded, deterministically-charged retry/backoff schedule.
	FaultMsgStall = engine.FaultMsgStall
	// FaultAccelOOM forces a device allocation beyond capacity. Fatal.
	FaultAccelOOM = engine.FaultAccelOOM
)

// V100 returns the paper testbed's GPU model.
func V100() DeviceSpec { return device.V100() }

// V100Scaled returns the V100 model with memory scaled down by the same
// divisor as the datasets, so OOM boundaries reproduce at any scale.
func V100Scaled(scale int64) DeviceSpec { return device.V100Scaled(scale) }

// Xeon20 returns the paper testbed's 20-thread CPU accelerator model.
func Xeon20() DeviceSpec { return device.Xeon20() }

// DefaultPlug returns middleware options with every optimization enabled
// and one full-size V100 daemon.
func DefaultPlug() PlugOptions { return gxplug.DefaultOptions() }

// GPUPlug returns default middleware options with n memory-scaled V100
// daemons — the standard accelerated configuration of the evaluation.
func GPUPlug(scale int64, n int) PlugOptions { return gxplug.GPUOptions(scale, n) }

// CPUPlug returns default middleware options with one CPU accelerator.
func CPUPlug() PlugOptions { return gxplug.CPUOptions() }

// PartitionBySizes splits vertices into contiguous ranges proportional to
// fractions — the partitioning the workload balancer tunes.
func PartitionBySizes(g *Graph, fractions []float64) *Partitioning {
	return graph.PartitionBySizes(g, fractions)
}

// CapacityFractions derives the Lemma 2 balanced partition fractions for
// a heterogeneous cluster: each node's computation-capacity factor comes
// from its accelerator list, with opsPerEntity calibrating entity cost
// (typically Hints().OpsPerEdge of the workload's algorithm).
func CapacityFractions(plugs []PlugOptions, opsPerEntity float64) ([]float64, error) {
	if opsPerEntity <= 0 {
		return nil, fmt.Errorf("gx: ops per entity %v", opsPerEntity)
	}
	c := make([]float64, len(plugs))
	for j, p := range plugs {
		var rate float64
		for _, s := range p.Devices {
			rate += device.New(s).EffectiveRate(1 << 20)
		}
		if rate <= 0 {
			return nil, fmt.Errorf("gx: node %d has no accelerators", j)
		}
		c[j] = opsPerEntity / rate
	}
	return balance.Fractions(c)
}
