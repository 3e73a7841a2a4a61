package engine

import (
	"time"

	"gxplug/internal/device"
	"gxplug/internal/gxplug"
	"gxplug/internal/gxplug/template"
	"gxplug/internal/simtime"
)

// Every charge formula of the engine's cost model (§III-A3) lives in
// this file, as pure functions of counts. The runner calls them with the
// counts a superstep measured and charges the result to a node clock;
// EstimateCost calls the same functions with predicted counts. A
// formula changed here moves live makespans and estimates together —
// testdata/cost.golden pins both. The network formulas are their
// counterpart in cluster (NetworkSpec.ExchangeEstimate/BarrierEstimate).

// wireRowBytes is the size of one width-wide row (message or attribute
// row) on the cluster network: the raw record inflated by the engine's
// serialization overhead, truncated to whole bytes per row.
func (s Spec) wireRowBytes(width int) int64 {
	return int64(float64(gxplug.RowBytes(width)) * s.MsgByteFactor)
}

// The native executor's work per phase, in ops: MSGGen+combine over
// edges, MSGMerge over arriving inbox rows (one op per message word),
// MSGApply over applied masters plus the rows an incremental run copies
// from its memo.

// replayOpsPerVertex caps the charged cost of copying one memoized row
// (a handful of moves — never more than a real apply).
const replayOpsPerVertex = 4

func genOps(edges float64, h template.Hints) float64 { return edges * h.OpsPerEdge }

func mergeOps(rows float64, mw int) float64 { return rows * float64(mw) }

func applyOps(applied, replayed float64, h template.Hints) float64 {
	return applied*h.OpsPerVertex + replayed*min(replayOpsPerVertex, h.OpsPerVertex)
}

// nativeTime is what ops cost on one node's built-in executor.
func (s Spec) nativeTime(ops float64) time.Duration {
	return simtime.TimeFor(ops, s.NativeRate)
}

// boundaryCost is one agent batch of raw bytes crossing the runtime
// boundary (JNI + data packager for GraphX; an in-process copy for
// PowerGraph): the fixed call cost plus the serialized volume over the
// boundary bandwidth.
func (s Spec) boundaryCost(bytes float64) time.Duration {
	return s.BoundaryFixed + simtime.TimeFor(bytes*s.MsgByteFactor, s.BoundaryBandwidth)
}

// pluggedComputeEstimate is the dry pass's coarse stand-in for a plugged
// node's daemons (the live cost is charged block by block inside
// gxplug): ops spread over all devices at their saturated rate, plus
// three phase launches (gen, merge, apply) at the slowest T_call.
func pluggedComputeEstimate(devs []device.Spec, ops float64) time.Duration {
	var rate float64
	var launch time.Duration
	for _, spec := range devs {
		rate += device.New(spec).EffectiveRate(1 << 20)
		launch = max(launch, spec.LaunchLatency)
	}
	return simtime.TimeFor(ops, rate) + 3*launch
}

// Simulated checkpoint storage: each node commits its masters' state
// to node-local durable storage (NVMe-class), then all nodes barrier.
const (
	checkpointFixed     = 500 * time.Microsecond // per-node commit latency
	checkpointBandwidth = 2e9                    // bytes/s sequential write
)

// checkpointCost is one node's commit of its masters: each row is aw
// float64 values plus its one-byte frontier flag. No vertex id is
// stored (rows are written in master order), so this is deliberately
// not RowBytes.
func checkpointCost(masters, aw int) time.Duration {
	bytes := int64(masters) * int64(8*aw+1)
	return checkpointFixed + simtime.TimeFor(float64(bytes), checkpointBandwidth)
}

// Batch application is charged as a fixed graph-mutation overhead plus a
// per-edge rebuild cost, identically on incremental and from-scratch
// runs — the contract compares recomputation, not ingestion.
const (
	batchApplyFixed        = 200 * time.Microsecond
	batchApplyBandwidth    = 2e9 // bytes/second
	batchApplyBytesPerEdge = 16
)

// batchApplyCost is the virtual time charged for applying one edge batch
// of the given size. Both incremental and from-scratch dynamic runs are
// charged the same cost, so makespan comparisons isolate recomputation.
func batchApplyCost(adds, removes int) time.Duration {
	if adds+removes <= 0 {
		return 0
	}
	bytes := float64((adds + removes) * batchApplyBytesPerEdge)
	return batchApplyFixed + simtime.TimeFor(bytes, batchApplyBandwidth)
}

// replayDivisor is the dry pass's prior for an incremental boundary: it
// is modelled at 1/replayDivisor of a seed boundary's cost (the dirty
// cone covers a fraction of the graph) — deliberately coarse.
const replayDivisor = 4

// overStream extends a seed-boundary estimate over a stream's extra
// boundaries. Iteration counts per boundary match the seed's by
// contract; recomputation per boundary is the full seed-boundary cost
// in scratch mode and 1/replayDivisor of it in incremental mode.
// (Batch application is not priced: it is identical in both modes and
// small beside any boundary.)
func (e CostEstimate) overStream(extra int, scratch bool) CostEstimate {
	e.Supersteps *= 1 + extra
	if scratch {
		e.Entities *= float64(1 + extra)
		e.Makespan *= time.Duration(1 + extra)
	} else {
		e.Entities += float64(extra) * e.Entities / replayDivisor
		e.Makespan += time.Duration(extra) * e.Makespan / replayDivisor
	}
	return e
}
