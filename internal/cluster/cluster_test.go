package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func testNet() NetworkSpec {
	return NetworkSpec{
		Latency:         time.Millisecond,
		Bandwidth:       1e6, // 1 MB/s: easy arithmetic
		BarrierOverhead: time.Millisecond,
	}
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0-node cluster accepted")
		}
	}()
	New(0, testNet())
}

func TestNodesIndependentClocks(t *testing.T) {
	c := New(3, testNet())
	c.Node(0).Charge("work", 5*time.Second)
	c.Node(2).Charge("work", 2*time.Second)
	if c.Node(1).Clock.Now() != 0 {
		t.Fatal("charging node 0 moved node 1's clock")
	}
	if c.MaxTime() != 5*time.Second {
		t.Fatalf("MaxTime = %v, want 5s", c.MaxTime())
	}
}

func TestChargeBuckets(t *testing.T) {
	c := New(1, testNet())
	n := c.Node(0)
	n.Charge("middleware", time.Second)
	n.Charge("upper", 2*time.Second)
	n.Charge("middleware", time.Second)
	if n.Bucket("middleware") != 2*time.Second || n.Bucket("upper") != 2*time.Second {
		t.Fatalf("buckets wrong: middleware %v, upper %v", n.Bucket("middleware"), n.Bucket("upper"))
	}
	if n.Clock.Now() != 4*time.Second {
		t.Fatalf("clock = %v, want 4s", n.Clock.Now())
	}
}

func TestBarrierEqualizesClocks(t *testing.T) {
	c := New(4, testNet())
	c.Node(1).Charge("work", 10*time.Second)
	c.Barrier("sync")
	want := 10*time.Second + 2*time.Millisecond // log2(4)=2 overhead units
	for j := 0; j < 4; j++ {
		if got := c.Node(j).Clock.Now(); got != want {
			t.Fatalf("node %d clock = %v, want %v", j, got, want)
		}
	}
	if c.Barriers() != 1 {
		t.Fatalf("barrier count = %d", c.Barriers())
	}
	// The slow node waited zero time: its sync bucket holds only overhead.
	if got := c.Node(1).Bucket("sync"); got != 2*time.Millisecond {
		t.Fatalf("slow node waited %v, want just overhead", got)
	}
}

func TestExchangeChargesVolumes(t *testing.T) {
	c := New(2, testNet())
	vol := [][]int64{
		{0, 2_000_000}, // node 0 sends 2MB to node 1
		{0, 0},
	}
	c.Exchange("net", vol)
	// Node 0: 1 peer latency + 2MB/1MBps = 1ms + 2s, plus barrier wait.
	// After barrier both clocks equal.
	if c.Node(0).Clock.Now() != c.Node(1).Clock.Now() {
		t.Fatal("exchange did not end at a barrier")
	}
	if c.MaxTime() < 2*time.Second {
		t.Fatalf("MaxTime %v too small for a 2MB transfer at 1MB/s", c.MaxTime())
	}
	if c.MaxTime() > 3*time.Second {
		t.Fatalf("MaxTime %v too large", c.MaxTime())
	}
}

func TestExchangeFullDuplex(t *testing.T) {
	// Symmetric send/recv should cost the max of the directions, not sum.
	c := New(2, testNet())
	vol := [][]int64{{0, 1_000_000}, {1_000_000, 0}}
	c.Exchange("net", vol)
	// Each node: 1ms latency + max(1MB,1MB)/1MBps = ~1.001s, + barrier.
	if c.MaxTime() > 1500*time.Millisecond {
		t.Fatalf("duplex exchange cost %v, want ~1s not ~2s", c.MaxTime())
	}
}

func TestExchangePanicsOnBadMatrix(t *testing.T) {
	c := New(2, testNet())
	defer func() {
		if recover() == nil {
			t.Fatal("bad matrix accepted")
		}
	}()
	c.Exchange("net", [][]int64{{0}})
}

func TestAllGather(t *testing.T) {
	c := New(3, testNet())
	c.AllGather("net", []int64{1_000_000, 0, 0})
	// Nodes 1 and 2 receive 1MB; node 0 receives 0 but still barriers.
	if c.Node(0).Clock.Now() != c.Node(2).Clock.Now() {
		t.Fatal("allgather did not barrier")
	}
	if c.MaxTime() < time.Second {
		t.Fatalf("allgather makespan %v too small", c.MaxTime())
	}
}

func TestAllGatherPanicsOnBadLen(t *testing.T) {
	c := New(2, testNet())
	defer func() {
		if recover() == nil {
			t.Fatal("bad contribution vector accepted")
		}
	}()
	c.AllGather("net", []int64{1})
}

func TestPerNodeIPCIsolation(t *testing.T) {
	c := New(2, testNet())
	seg, err := c.Node(0).IPC.Shmget(1, 64, 1) // shm.Create == 1
	if err != nil {
		t.Fatal(err)
	}
	_ = seg
	// The same key on node 1's namespace must not exist.
	if _, err := c.Node(1).IPC.Shmget(1, 64, 0); err == nil { // shm.Open == 0
		t.Fatal("IPC namespaces shared across nodes")
	}
}

// Property: barriers are idempotent on already-synchronized clusters up to
// the fixed overhead, and MaxTime never decreases.
func TestBarrierMonotoneQuick(t *testing.T) {
	f := func(charges []uint16) bool {
		c := New(4, testNet())
		for i, ch := range charges {
			c.Node(i%4).Charge("w", time.Duration(ch)*time.Millisecond)
		}
		before := c.MaxTime()
		c.Barrier("sync")
		mid := c.MaxTime()
		c.Barrier("sync")
		after := c.MaxTime()
		return mid >= before && after >= mid
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// A single-node cluster has nobody to talk to: every communication
// primitive — and the barrier underneath them — must be free.
func TestSingleNodePrimitivesFree(t *testing.T) {
	run := func(name string, f func(c *Cluster)) {
		c := New(1, testNet())
		f(c)
		if got := c.Node(0).Clock.Now(); got != 0 {
			t.Errorf("%s on 1 node charged %v, want 0", name, got)
		}
	}
	run("exchange", func(c *Cluster) { c.Exchange("net", [][]int64{{0}}) })
	run("allgather", func(c *Cluster) { c.AllGather("net", []int64{1_000_000}) })
	run("barrier", func(c *Cluster) { c.Barrier("sync") })
}

// Zero-volume rows charge nothing: latency is per non-empty peer, so a
// node with an all-zero row pays only the barrier.
func TestExchangeZeroVolumeRows(t *testing.T) {
	c := New(3, testNet())
	vol := [][]int64{
		{0, 1_000_000, 0}, // node 0 sends 1MB to node 1 only
		{0, 0, 0},         // node 1 sends nothing
		{0, 0, 0},         // node 2 idles entirely
	}
	c.Exchange("net", vol)
	// Node 0: 1 peer × 1ms + 1s send. Node 1: receives 1MB → 1s. Node 2:
	// nothing. All meet at a barrier (log2(3)=2 → 2ms overhead).
	want := 1*time.Second + 1*time.Millisecond + 2*time.Millisecond
	for j := 0; j < 3; j++ {
		if got := c.Node(j).Clock.Now(); got != want {
			t.Fatalf("node %d clock %v, want %v", j, got, want)
		}
	}
	// The idle node's entire cost is barrier wait, not phantom latency.
	if got := c.Node(2).Bucket("net"); got != want {
		t.Fatalf("idle node bucket %v, want pure barrier wait %v", got, want)
	}
}

// Asymmetric volumes pay the dominating direction: a node sending 2MB
// while receiving 1MB costs 2s on its link, not 3s (full duplex).
func TestExchangeAsymmetricVolumes(t *testing.T) {
	c := New(2, testNet())
	vol := [][]int64{
		{0, 2_000_000},
		{1_000_000, 0},
	}
	c.Exchange("net", vol)
	// Both nodes: 1 peer × 1ms latency + max(2MB,1MB)/1MBps = 2s; then
	// the barrier adds its 1ms overhead on the already-equal clocks.
	want := 2*time.Second + 1*time.Millisecond + 1*time.Millisecond
	for j := 0; j < 2; j++ {
		if got := c.Node(j).Clock.Now(); got != want {
			t.Fatalf("node %d clock %v, want %v", j, got, want)
		}
	}
}

// AllGather charges each node the ring traffic it forwards — everyone
// else's contribution — plus m-1 latencies; zero contributions still
// ride the ring for free.
func TestAllGatherAsymmetricContributions(t *testing.T) {
	c := New(3, testNet())
	c.AllGather("net", []int64{3_000_000, 0, 0})
	// Nodes 1 and 2 forward node 0's 3MB (3s + 2×1ms latency); node 0
	// forwards nothing (just 2ms latency). Barrier: 2ms overhead.
	want := 3*time.Second + 2*time.Millisecond + 2*time.Millisecond
	if got := c.MaxTime(); got != want {
		t.Fatalf("makespan %v, want %v", got, want)
	}
	if got := c.Node(0).Bucket("net"); got != want {
		t.Fatalf("node 0 charged %v, want barrier-equalized %v", got, want)
	}
}
