// Package cluster simulates the distributed side of the paper's testbed:
// m nodes with independent virtual clocks, a network with per-message
// latency and finite bandwidth, synchronization barriers, and per-node
// time accounting split into named buckets (the Fig 14 "middleware cost
// ratio" is computed from these buckets).
//
// The simulation is deterministic: per-node work charges that node's
// clock, and communication primitives advance the clocks of all
// participants consistently. Node and its accounting buckets are NOT
// thread-safe — engines may fan per-node work out across host workers
// only because each worker charges exclusively its own node's clock
// (see internal/engine/parallel.go); any cross-node Charge must happen
// from a single goroutine, as the communication primitives do.
// Determinism is what makes every figure exactly reproducible.
package cluster

import (
	"fmt"
	"time"

	"gxplug/internal/shm"
	"gxplug/internal/simtime"
)

// NetworkSpec models the interconnect.
type NetworkSpec struct {
	// Latency is the fixed one-way cost per message.
	Latency time.Duration
	// Bandwidth is per-link throughput in bytes/second.
	Bandwidth float64
	// BarrierOverhead is the coordination cost of one global barrier on
	// top of waiting for the slowest node (grows logarithmically with the
	// node count inside Barrier).
	BarrierOverhead time.Duration
}

// DatacenterNet is a 10GbE-class cluster network.
func DatacenterNet() NetworkSpec {
	return NetworkSpec{
		Latency:         50 * time.Microsecond,
		Bandwidth:       1.25e9,                // 10 Gb/s
		BarrierOverhead: 50 * time.Microsecond, // MPI-class tree barrier step
	}
}

// Node is one simulated distributed machine. Each node owns a private
// System V IPC namespace — agents and daemons co-located on the node share
// it; nothing else can (processes on different machines cannot share
// memory).
type Node struct {
	ID    int
	Clock simtime.Clock
	IPC   *shm.IPC

	buckets map[string]time.Duration
}

// Charge advances the node clock by d and attributes d to a named
// accounting bucket ("upper", "middleware", "network", ...).
func (n *Node) Charge(bucket string, d time.Duration) {
	n.Clock.Advance(d)
	n.buckets[bucket] += d
}

// Bucket returns the accumulated time in a bucket.
func (n *Node) Bucket(name string) time.Duration { return n.buckets[name] }

// Restore rewinds the node to a previously captured accounting state:
// the clock is reset and re-advanced to clock, and the buckets are
// replaced by the given totals (zero entries are dropped, matching a
// node that never charged that bucket). Checkpoint resume uses it to
// discard the cost of reconstructing in-memory state — a resumed run
// must account exactly what the checkpointed run had.
func (n *Node) Restore(clock time.Duration, buckets map[string]time.Duration) {
	n.Clock.Reset()
	n.Clock.Advance(clock)
	for k := range n.buckets {
		delete(n.buckets, k)
	}
	for k, v := range buckets {
		if v != 0 {
			n.buckets[k] = v
		}
	}
}

// Cluster is a set of nodes plus the network joining them.
type Cluster struct {
	Net   NetworkSpec
	nodes []*Node

	barriers int
}

// New creates a cluster of m nodes.
func New(m int, net NetworkSpec) *Cluster {
	if m <= 0 {
		panic(fmt.Sprintf("cluster: %d nodes", m))
	}
	c := &Cluster{Net: net, nodes: make([]*Node, m)}
	for i := range c.nodes {
		c.nodes[i] = &Node{
			ID:      i,
			IPC:     shm.NewIPC(shm.DefaultLimits()),
			buckets: make(map[string]time.Duration),
		}
	}
	return c
}

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns node j.
func (c *Cluster) Node(j int) *Node { return c.nodes[j] }

// Nodes returns all nodes in ID order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// MaxTime returns the latest node clock — the makespan of the simulated
// run so far.
func (c *Cluster) MaxTime() time.Duration {
	var max time.Duration
	for _, n := range c.nodes {
		if t := n.Clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// Barrier synchronizes all nodes: every clock advances to the slowest
// node's time plus the coordination overhead (Net.BarrierEstimate). Time
// spent waiting is charged to the given bucket on each node (the waiting
// node is blocked, not computing).
func (c *Cluster) Barrier(bucket string) {
	c.barriers++
	target := c.MaxTime() + c.Net.BarrierEstimate(len(c.nodes))
	for _, n := range c.nodes {
		wait := target - n.Clock.Now()
		if wait > 0 {
			n.Charge(bucket, wait)
		}
	}
}

// Barriers reports how many barriers have executed.
func (c *Cluster) Barriers() int { return c.barriers }

// RestoreBarriers overwrites the barrier counter with a checkpointed
// value (see Node.Restore).
func (c *Cluster) RestoreBarriers(n int) { c.barriers = n }

// Exchange performs an all-to-all data exchange. vol[i][j] is the number
// of bytes node i sends to node j. Each node pays Net.ExchangeEstimate of
// its non-empty peers and its own send and receive volumes, then all
// nodes meet at a barrier — the BSP communication+synchronization
// superstep phases. Costs go to the given bucket.
func (c *Cluster) Exchange(bucket string, vol [][]int64) {
	m := len(c.nodes)
	if len(vol) != m {
		panic(fmt.Sprintf("cluster: exchange volume matrix %dx? for %d nodes", len(vol), m))
	}
	for i, row := range vol {
		if len(row) != m {
			panic(fmt.Sprintf("cluster: exchange row %d has %d entries, want %d", i, len(row), m))
		}
		var sendB, recvB int64
		var peers int
		for j := 0; j < m; j++ {
			if j == i {
				continue // local delivery is free at this layer
			}
			if row[j] > 0 {
				sendB += row[j]
				peers++
			}
			if vol[j][i] > 0 {
				recvB += vol[j][i]
			}
		}
		c.nodes[i].Charge(bucket, c.Net.ExchangeEstimate(peers, sendB, recvB))
	}
	c.Barrier(bucket)
}

// AllGather has every node contribute `bytes[j]` and receive everyone
// else's contribution (ring all-gather), then barriers. Used for the
// global query/data queues of lazy uploading (§III-B2b).
func (c *Cluster) AllGather(bucket string, bytes []int64) {
	m := len(c.nodes)
	if len(bytes) != m {
		panic(fmt.Sprintf("cluster: allgather %d contributions for %d nodes", len(bytes), m))
	}
	var total int64
	for _, b := range bytes {
		total += b
	}
	for j, n := range c.nodes {
		// Ring: each node forwards m-1 messages totalling (total - own).
		vol := total - bytes[j]
		cost := time.Duration(m-1)*c.Net.Latency + simtime.TimeFor(float64(vol), c.Net.Bandwidth)
		n.Charge(bucket, cost)
	}
	c.Barrier(bucket)
}
