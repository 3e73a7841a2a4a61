package cluster

import (
	"time"

	"gxplug/internal/simtime"
)

// The network charge formulas, as pure functions of the NetworkSpec.
// Barrier and Exchange charge node clocks through them, and a planner
// prices a superstep's communication through the same two functions
// without standing up a cluster or executing anything.

// BarrierEstimate returns the coordination overhead one Barrier adds on
// an m-node cluster on top of waiting for the slowest node: one
// BarrierOverhead per level of a tree barrier. It is zero for m <= 1 —
// single-node collectives are free.
func (n NetworkSpec) BarrierEstimate(m int) time.Duration {
	return n.BarrierOverhead * time.Duration(simtime.Log2Ceil(m))
}

// ExchangeEstimate returns the cost one all-to-all Exchange charges a
// node that sends sendB bytes to peers non-empty destinations while
// receiving recvB bytes — per-peer latency plus the dominating direction
// over a full-duplex link (local delivery is free at this layer). The
// barrier closing the exchange is not included; add BarrierEstimate for
// the full phase.
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
