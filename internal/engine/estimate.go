package engine

import (
	"fmt"
	"time"

	"gxplug/internal/cluster"
	"gxplug/internal/device"
	"gxplug/internal/gxplug"
	"gxplug/internal/simtime"
)

// CostEstimate is the dry pass's prediction for one run: how many
// supersteps it will take, how much work it will move, and what virtual
// makespan the calibrated cost model prices that at. It is intentionally
// rough — a scheduling signal, not a simulation — but it is built from
// the same calibrated parameters (device §III-A3 terms, network model,
// engine Spec) the live run charges, so relative ordering between
// scenarios is trustworthy even where absolute values drift.
type CostEstimate struct {
	// Supersteps is the predicted iteration count: the algorithm's own
	// cap tightened by Config.MaxIter, or a convergence heuristic
	// (≈ ceil(log2 V)) for run-to-convergence algorithms.
	Supersteps int
	// Entities is the predicted work volume in entity-iterations —
	// edges plus master vertices touched, summed over all predicted
	// supersteps (the same unit agent stats report).
	Entities float64
	// Makespan is the predicted virtual cluster makespan.
	Makespan time.Duration
}

// EstimateCost predicts a run's cost from graph stats, partitioning
// fractions, and the calibrated device/network parameters alone — no
// graph is traversed beyond one pass over the partitioned edge list to
// count cross-node traffic, and no superstep executes. The estimate is
// deterministic: the same Config always yields the same CostEstimate.
//
// The per-superstep model mirrors the live charging structure: each node
// pays compute (partition entities over its native rate or summed
// accelerator EffectiveRate), the plugged runtime boundary
// (BoundaryFixed + bytes over BoundaryBandwidth, plus per-phase launch
// latency), and its share of the message exchange
// (cluster.ExchangeEstimate); the slowest node sets the step, and every
// step closes with SuperstepOverhead plus a barrier
// (cluster.BarrierEstimate).
func EstimateCost(cfg Config) (CostEstimate, error) {
	if cfg.Nodes <= 0 {
		return CostEstimate{}, fmt.Errorf("engine: estimate: %d nodes", cfg.Nodes)
	}
	if cfg.Graph == nil || cfg.Alg == nil {
		return CostEstimate{}, fmt.Errorf("engine: estimate: nil graph or algorithm")
	}
	if len(cfg.Plug) > 1 && len(cfg.Plug) != cfg.Nodes {
		return CostEstimate{}, fmt.Errorf("engine: estimate: %d plug configs for %d nodes", len(cfg.Plug), cfg.Nodes)
	}
	part := cfg.Partitioning
	if part == nil {
		part = cfg.Spec.Partition(cfg.Graph, cfg.Nodes)
	}
	if part.NumNodes() != cfg.Nodes {
		return CostEstimate{}, fmt.Errorf("engine: estimate: partitioning has %d nodes, config %d", part.NumNodes(), cfg.Nodes)
	}
	net := cfg.Net
	if net.Bandwidth == 0 {
		net = cluster.DatacenterNet()
	}

	hints := cfg.Alg.Hints()
	aw, mw := cfg.Alg.AttrWidth(), cfg.Alg.MsgWidth()
	m := cfg.Nodes

	steps := hints.MaxIterations
	if cfg.MaxIter > 0 && (steps == 0 || cfg.MaxIter < steps) {
		steps = cfg.MaxIter
	}
	if steps <= 0 {
		// Run-to-convergence: label-propagation-style algorithms converge
		// in about the graph's diameter, which is O(log V) for the
		// power-law graphs the generators produce.
		steps = simtime.Log2Ceil(cfg.Graph.NumVertices()) + 2
	}

	// Activity factor: GenAll/ApplyAll algorithms touch every edge every
	// superstep; frontier-driven ones touch roughly half on average over
	// the run (the frontier grows, peaks, and collapses).
	act := 1.0
	if !hints.GenAll && !hints.ApplyAll {
		act = 0.5
	}

	// Cross-node traffic per superstep: one pass over the partitioned
	// edges counts messages that leave their hosting node (destination
	// mastered elsewhere), attributed to sender and receiver.
	sendMsgs := make([]float64, m)
	recvMsgs := make([]float64, m)
	var totalMirrors float64
	for j := range part.Parts {
		for _, e := range part.Parts[j].Edges {
			if o := int(part.Owner[e.Dst]); o != j {
				sendMsgs[j]++
				recvMsgs[o]++
			}
		}
		totalMirrors += float64(part.Parts[j].Mirrors)
	}

	rawMsg := float64(8*mw + 4)
	rawRow := float64(8*aw + 4)
	msgWire := rawMsg * cfg.Spec.MsgByteFactor
	rowWire := rawRow * cfg.Spec.MsgByteFactor

	var slowest time.Duration
	var entitiesPerStep float64
	for j := 0; j < m; j++ {
		p := part.Parts[j]
		edges := float64(len(p.Edges))
		masters := float64(len(p.Masters))
		entitiesPerStep += act * (edges + masters)
		work := act * (edges*hints.OpsPerEdge + masters*hints.OpsPerVertex)

		var nodeCost time.Duration
		opts, plugged := estimatePlugFor(cfg, j)
		if plugged && len(opts.Devices) > 0 {
			var rate float64
			var launch time.Duration
			for _, spec := range opts.Devices {
				rate += device.New(spec).EffectiveRate(1 << 20)
				if spec.LaunchLatency > launch {
					launch = spec.LaunchLatency
				}
			}
			nodeCost += simtime.TimeFor(work, rate)
			// Runtime boundary per superstep: master rows down and up plus
			// the message traffic, across the engine's boundary; three
			// phase launches (gen, merge, apply) pay T_call each.
			boundaryBytes := act * (2*masters*rawRow + (sendMsgs[j]+recvMsgs[j])*rawMsg)
			nodeCost += cfg.Spec.BoundaryFixed + simtime.TimeFor(boundaryBytes*cfg.Spec.MsgByteFactor, cfg.Spec.BoundaryBandwidth)
			nodeCost += 3 * launch
		} else {
			// Native executor: gen over edges, merge over the arriving
			// inbox, apply over masters — all at the engine's native rate.
			work += act * recvMsgs[j] * float64(mw)
			nodeCost += simtime.TimeFor(work, cfg.Spec.NativeRate)
		}

		// Message exchange plus this node's share of the mirror broadcast
		// (masters push attribute rows to their replicas; senders split
		// the total evenly, receivers pay their partition's mirror count).
		sendB := int64(act * (sendMsgs[j]*msgWire + totalMirrors/float64(m)*rowWire))
		recvB := int64(act * (recvMsgs[j]*msgWire + float64(p.Mirrors)*rowWire))
		peers := 0
		if sendB > 0 {
			peers = m - 1
		}
		nodeCost += net.ExchangeEstimate(peers, sendB, recvB)

		if nodeCost > slowest {
			slowest = nodeCost
		}
	}

	stepCost := slowest + cfg.Spec.SuperstepOverhead + net.BarrierEstimate(m)
	return CostEstimate{
		Supersteps: steps,
		Entities:   float64(steps) * entitiesPerStep,
		Makespan:   time.Duration(steps) * stepCost,
	}, nil
}

// estimatePlugFor mirrors runner.plugFor without a runner: the plug
// options in effect for node j, if any.
func estimatePlugFor(cfg Config, j int) (o gxplug.Options, plugged bool) {
	switch len(cfg.Plug) {
	case 0:
		return o, false
	case 1:
		o = cfg.Plug[0]
	default:
		o = cfg.Plug[j]
	}
	return o, true
}
