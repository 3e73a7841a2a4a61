package cluster

import (
	"testing"
	"time"
)

// TestBarrierEstimateMatchesBarrier pins Barrier's accounting: on a
// cluster of idle nodes every clock advances by exactly BarrierEstimate
// — the overhead is charged once, not per node or per level twice.
func TestBarrierEstimateMatchesBarrier(t *testing.T) {
	net := DatacenterNet()
	for _, m := range []int{1, 2, 3, 4, 7, 8} {
		c := New(m, net)
		c.Barrier("upper")
		if got, want := c.MaxTime(), net.BarrierEstimate(m); got != want {
			t.Errorf("m=%d: barrier charged %v, estimate %v", m, got, want)
		}
	}
}

// TestExchangeEstimateMatchesExchange pins Exchange's per-node
// accounting: it feeds ExchangeEstimate the node's own non-empty peer
// count and send/receive totals (row i and column i of the volume
// matrix, diagonal excluded) and closes with one barrier.
func TestExchangeEstimateMatchesExchange(t *testing.T) {
	net := DatacenterNet()
	c := New(3, net)
	vol := [][]int64{
		{0, 1000, 2000},
		{500, 0, 0},
		{0, 4000, 0},
	}
	c.Exchange("upper", vol)

	// The slowest node (node 0: sends 3000 over 2 peers, receives 500)
	// sets the makespan; everyone then pays the barrier on top.
	slowest := net.ExchangeEstimate(2, 3000, 500)
	if got, want := c.MaxTime(), slowest+net.BarrierEstimate(3); got != want {
		t.Fatalf("exchange makespan %v, estimate %v", got, want)
	}
}

// TestExchangeEstimateZero: no traffic, no cost — what keeps a node with
// an all-zero row and a single-node cluster free in Exchange/Barrier.
func TestExchangeEstimateZero(t *testing.T) {
	net := DatacenterNet()
	if d := net.ExchangeEstimate(0, 0, 0); d != 0 {
		t.Fatalf("empty exchange estimate %v", d)
	}
	if d := net.BarrierEstimate(1); d != 0 {
		t.Fatalf("single-node barrier estimate %v", d)
	}
}

// TestExchangeEstimateFullDuplex: the dominating direction is charged,
// not the sum — the formula Exchange charges every node through.
func TestExchangeEstimateFullDuplex(t *testing.T) {
	net := NetworkSpec{Latency: time.Microsecond, Bandwidth: 1e6, BarrierOverhead: time.Microsecond}
	symmetric := net.ExchangeEstimate(1, 1000, 1000)
	sendOnly := net.ExchangeEstimate(1, 1000, 0)
	if symmetric != sendOnly {
		t.Fatalf("full duplex: symmetric %v != send-only %v", symmetric, sendOnly)
	}
	if recvHeavy := net.ExchangeEstimate(1, 1000, 3000); recvHeavy <= symmetric {
		t.Fatalf("receive-dominated exchange %v not above %v", recvHeavy, symmetric)
	}
}
