package gxplug

import (
	"strings"
	"testing"

	"gxplug/internal/algos"
	"gxplug/internal/cluster"
	"gxplug/internal/graph"
	"gxplug/internal/shm"
)

// Failure-injection tests: the daemon-agent protocol must degrade into
// errors, not hangs or corruption, when components misbehave.

func connectedAgent(t *testing.T) (*Agent, *cluster.Cluster) {
	t.Helper()
	g := testGraph(t)
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 1)
	cl := cluster.New(1, cluster.DatacenterNet())
	ctx := testCtx(g)
	a := NewAgent(cl.Node(0), part, pr, ctx, newFakeUpper(g, pr, ctx), fastOpts())
	if err := a.Connect(); err != nil {
		t.Fatal(err)
	}
	return a, cl
}

// An unknown request type must produce a protocol error response, not a
// hang or a crash.
func TestDaemonRejectsUnknownOp(t *testing.T) {
	a, _ := connectedAgent(t)
	defer a.Disconnect()
	p := a.daemons[0]
	if _, _, err := p.request(999, nil); err == nil {
		t.Fatal("unknown op accepted")
	} else if !strings.Contains(err.Error(), "unknown request") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The daemon must still be alive and serving.
	if _, err := a.RequestGen(nil); err != nil {
		t.Fatalf("daemon dead after bad op: %v", err)
	}
}

// A compute request against a garbage segment must error cleanly.
func TestDaemonRejectsCorruptSegment(t *testing.T) {
	a, _ := connectedAgent(t)
	defer a.Disconnect()
	p := a.daemons[0]
	// Write a gen-block kind with an absurd triplet count.
	seg := p.mem[physSeg(roleC, p.rot)]
	c := &cursor{buf: seg}
	c.u32(blockKindGen)
	c.u32(1 << 30) // nTriplets far beyond the segment
	c.u32(1)
	c.u32(1)
	c.u32(1)
	c.u32(0)
	if _, _, err := p.request(msgCompute, nil); err == nil {
		t.Fatal("corrupt gen block accepted")
	}
	clearKind(seg)
	if _, err := a.RequestGen(nil); err != nil {
		t.Fatalf("daemon dead after corrupt block: %v", err)
	}
}

// Apply and merge on corrupt segments must also error, not panic.
func TestDaemonRejectsCorruptApplyMerge(t *testing.T) {
	a, _ := connectedAgent(t)
	defer a.Disconnect()
	p := a.daemons[0]
	seg := p.mem[physSeg(roleC, p.rot)]
	clearKind(seg) // wrong kind for both ops
	if _, _, err := p.request(msgApply, nil); err == nil {
		t.Fatal("apply on wrong-kind segment accepted")
	}
	if _, _, err := p.request(msgMerge, nil); err == nil {
		t.Fatal("merge on wrong-kind segment accepted")
	}
}

// Disconnect must free every IPC object so a fresh agent can reconnect
// under the same well-known keys.
func TestAgentReconnectReusesKeys(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 1)
	cl := cluster.New(1, cluster.DatacenterNet())
	ctx := testCtx(g)
	upper := newFakeUpper(g, pr, ctx)

	for round := 0; round < 3; round++ {
		a := NewAgent(cl.Node(0), part, pr, ctx, upper, fastOpts())
		if err := a.Connect(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := a.RequestGen(nil); err != nil {
			t.Fatalf("round %d gen: %v", round, err)
		}
		a.Disconnect()
	}
	// After the last disconnect nothing may linger under the daemon keys.
	if _, err := cl.Node(0).IPC.Msgget(daemonReqKey(0), shm.Open); err == nil {
		t.Fatal("request queue leaked after disconnect")
	}
	if _, err := cl.Node(0).IPC.Shmget(daemonSegKey(0, 0), 1, shm.Open); err == nil {
		t.Fatal("segment leaked after disconnect")
	}
}

// Disconnect on a never-connected or already-disconnected agent is a
// no-op, not a crash.
func TestDisconnectIdempotent(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 1)
	cl := cluster.New(1, cluster.DatacenterNet())
	ctx := testCtx(g)
	a := NewAgent(cl.Node(0), part, pr, ctx, newFakeUpper(g, pr, ctx), fastOpts())
	a.Disconnect() // never connected
	if err := a.Connect(); err != nil {
		t.Fatal(err)
	}
	a.Disconnect()
	a.Disconnect() // double disconnect
}

// An empty partition (a node that mastered nothing) must connect and run
// without errors — clusters larger than the graph's natural spread happen
// in the Fig 14 sweeps.
func TestAgentEmptyPartition(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	pr := algos.NewPageRank()
	// Hash 3 vertices over 8 nodes: most partitions are empty.
	part := graph.EdgeCutByHash(g, 8)
	cl := cluster.New(8, cluster.DatacenterNet())
	ctx := testCtx(g)
	upper := newFakeUpper(g, pr, ctx)
	for j := 0; j < 8; j++ {
		a := NewAgent(cl.Node(j), part, pr, ctx, upper, fastOpts())
		if err := a.Connect(); err != nil {
			t.Fatalf("node %d: %v", j, err)
		}
		res, err := a.RequestGen(nil)
		if err != nil {
			t.Fatalf("node %d gen: %v", j, err)
		}
		if _, err := a.RequestApply(res); err != nil {
			t.Fatalf("node %d apply: %v", j, err)
		}
		a.Disconnect()
	}
}

// Messages for vertices a node does not master must never be merged into
// it — silent misdelivery would corrupt results. Routing files messages
// by the partitioning's index, so the remaining hole is a buffer built
// for some other node: RequestMerge rejects one whose geometry does not
// match the node's master set.
func TestRequestMergeRejectsForeignBuffer(t *testing.T) {
	a, _ := connectedAgent(t)
	defer a.Disconnect()
	res, err := a.RequestGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	wrongGeometry := NewMsgBuf(a.alg, len(a.Masters())+3)
	wrongGeometry.Merge(int32(len(a.Masters())+1), []float64{1})
	if err := a.RequestMerge(res, wrongGeometry); err == nil {
		t.Fatal("merge with mismatched buffer geometry accepted")
	}
}
