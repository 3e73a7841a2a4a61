package engine

import (
	"time"

	"gxplug/internal/gxplug"
	"gxplug/internal/simtime"
)

// CostEstimate is the dry pass's prediction for one run: how many
// supersteps it will take, how much work it will move, and what virtual
// makespan the calibrated cost model prices that at. It is intentionally
// rough — a scheduling signal, not a simulation — but it is priced by
// the same charge functions (cost.go, the network model, device rates)
// the live run charges through, so relative ordering between scenarios
// is trustworthy even where absolute values drift.
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
// deterministic: the same Config always yields the same CostEstimate,
// and a Config that Run rejects is rejected here with the same error.
//
// The per-superstep model follows the live charging structure and prices
// it with the live charge functions (cost.go, NetworkSpec): each node
// pays compute (its partition's gen/merge/apply ops on the native
// executor, or pluggedComputeEstimate plus one runtime-boundary batch),
// and its share of the message exchange; the slowest node sets the
// step, and every step closes with SuperstepOverhead plus a barrier.
// What stays approximate is the counts fed in, not the formulas. A batch
// stream is priced from its seed boundary (CostEstimate.overStream).
func EstimateCost(cfg Config) (CostEstimate, error) {
	p, err := resolve(cfg)
	if err != nil {
		return CostEstimate{}, err
	}
	part, spec, m := p.part, cfg.Spec, cfg.Nodes
	hints := cfg.Alg.Hints()

	steps := p.maxIter
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
	// mastered elsewhere), attributed to sender and receiver. Combining
	// is ignored: every cross-node edge counts as one message.
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

	rawMsg, rawRow := float64(gxplug.RowBytes(p.mw)), float64(gxplug.RowBytes(p.aw))
	msgWire, rowWire := float64(spec.wireRowBytes(p.mw)), float64(spec.wireRowBytes(p.aw))

	var slowest time.Duration
	var entitiesPerStep float64
	for j := 0; j < m; j++ {
		pj := part.Parts[j]
		edges, masters := act*float64(len(pj.Edges)), act*float64(len(pj.Masters))
		entitiesPerStep += edges + masters
		ops := genOps(edges, hints) + applyOps(masters, 0, hints)

		var nodeCost time.Duration
		if p.plug != nil && len(p.plug[j].Devices) > 0 {
			// One boundary batch per superstep: master rows down and up
			// plus the message traffic.
			nodeCost = pluggedComputeEstimate(p.plug[j].Devices, ops) +
				spec.boundaryCost(2*masters*rawRow+act*(sendMsgs[j]+recvMsgs[j])*rawMsg)
		} else {
			nodeCost = spec.nativeTime(ops + mergeOps(act*recvMsgs[j], p.mw))
		}

		// Message exchange plus this node's share of the mirror broadcast
		// (masters push attribute rows to their replicas; senders split
		// the total evenly, receivers pay their partition's mirror count).
		sendB := int64(act * (sendMsgs[j]*msgWire + totalMirrors/float64(m)*rowWire))
		recvB := int64(act * (recvMsgs[j]*msgWire + float64(pj.Mirrors)*rowWire))
		peers := 0
		if sendB > 0 {
			peers = m - 1
		}
		nodeCost += p.net.ExchangeEstimate(peers, sendB, recvB)

		slowest = max(slowest, nodeCost)
	}

	stepCost := slowest + spec.SuperstepOverhead + p.net.BarrierEstimate(m)
	est := CostEstimate{
		Supersteps: steps,
		Entities:   float64(steps) * entitiesPerStep,
		Makespan:   time.Duration(steps) * stepCost,
	}
	if st := cfg.Stream; st != nil {
		est = est.overStream(len(st.Batches))
	}
	return est, nil
}
