package cluster

import (
	"time"

	"gxplug/internal/simtime"
)

// This file is the dry-cost entry point of the cluster model: the same
// formulas Barrier and Exchange charge to node clocks, exposed as pure
// functions of the NetworkSpec so a planner can price a superstep's
// communication without standing up a cluster or executing anything.
// Keeping them next to the live primitives is what keeps the two from
// drifting apart; cluster/estimate_test.go pins the equivalence.

// BarrierEstimate returns the coordination overhead one Barrier adds on
// an m-node cluster on top of waiting for the slowest node. Like
// Barrier itself it is zero for m <= 1: single-node collectives are
// free.
func (n NetworkSpec) BarrierEstimate(m int) time.Duration {
	return n.BarrierOverhead * time.Duration(simtime.Log2Ceil(m))
}

// ExchangeEstimate returns the cost one all-to-all Exchange charges a
// node that sends sendB bytes to peers non-empty destinations while
// receiving recvB bytes — per-peer latency plus the dominating direction
// over a full-duplex link. The barrier closing the exchange is not
// included; add BarrierEstimate for the full phase.
func (n NetworkSpec) ExchangeEstimate(peers int, sendB, recvB int64) time.Duration {
	cost := time.Duration(peers) * n.Latency
	dom := sendB
	if recvB > dom {
		dom = recvB
	}
	if dom > 0 {
		cost += simtime.TimeFor(float64(dom), n.Bandwidth)
	}
	return cost
}
