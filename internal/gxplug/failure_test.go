package gxplug

import (
	"errors"
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

// A well-formed gen block whose triplets name rows outside its vertex
// block, and a merge block of width zero, are what the size checks cannot
// see; the daemon must refuse both instead of indexing or dividing by them.
func TestDaemonRejectsBadRowsAndZeroWidth(t *testing.T) {
	a, _ := connectedAgent(t)
	defer a.Disconnect()
	p := a.daemons[0]
	seg := p.mem[physSeg(roleC, p.rot)]
	for _, rows := range [][2]int32{{0, 2}, {2, 0}, {-1, 0}} {
		eb := &graph.EdgeBlock{Triplets: []graph.Triplet{{Src: 1, Dst: 2, W: 1, SrcRow: rows[0], DstRow: rows[1]}}}
		vb := &graph.VertexBlock{IDs: []graph.VertexID{1, 2}, Stride: 1, Attrs: []float64{1, 1}}
		if _, err := encodeGenBlock(seg, eb, vb, 1, false); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.request(msgCompute, nil); err == nil || !strings.Contains(err.Error(), "names rows") {
			t.Fatalf("rows %v: gen block accepted or wrong error: %v", rows, err)
		}
	}
	c := &cursor{buf: seg}
	c.u32(blockKindMerge)
	c.u32(3) // rows
	c.u32(0) // msgW
	if _, _, err := p.request(msgMerge, nil); err == nil || !strings.Contains(err.Error(), "implausible merge block") {
		t.Fatalf("zero-width merge block accepted or wrong error: %v", err)
	}
	clearKind(seg)
	if _, err := a.RequestGen(nil); err != nil {
		t.Fatalf("daemon dead after bad blocks: %v", err)
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

// namespaceEmpty fails the test if anything lingers under the keys of
// daemons 0..n-1 in the node's IPC namespace.
func namespaceEmpty(t *testing.T, ipc *shm.IPC, n int) {
	t.Helper()
	for d := 0; d < n; d++ {
		for _, key := range []shm.Key{daemonReqKey(d), daemonRespKey(d)} {
			if _, err := ipc.Msgget(key, shm.Open); err == nil {
				t.Errorf("daemon %d: queue %d left in the namespace", d, key)
			}
		}
		for role := 0; role < 3; role++ {
			if _, err := ipc.Shmget(daemonSegKey(d, role), 1, shm.Open); err == nil {
				t.Errorf("daemon %d: segment %d left in the namespace", d, role)
			}
		}
	}
}

// A Connect that fails part-way must leave nothing behind: neither when
// the very first Shmget is refused (SHMMAX below the segment size, with
// the daemon's two queues already created), nor when a later daemon fails
// after an earlier one is up and running. The agent connects once the
// obstacle is gone.
func TestConnectFailureLeavesNamespaceEmpty(t *testing.T) {
	g := testGraph(t)
	pr := algos.NewPageRank()
	part := graph.EdgeCutByHash(g, 1)
	cl := cluster.New(1, cluster.DatacenterNet())
	node := cl.Node(0)
	ctx := testCtx(g)
	opts := fastOpts()
	opts.Devices = append(opts.Devices, opts.Devices[0])
	a := NewAgent(node, part, pr, ctx, newFakeUpper(g, pr, ctx), opts)

	node.IPC = shm.NewIPC(shm.Limits{MaxSegmentBytes: 64, MaxQueueBytes: 1 << 20})
	if err := a.Connect(); !errors.Is(err, shm.ErrTooBig) {
		t.Fatalf("Connect under a 64-byte SHMMAX: %v, want ErrTooBig", err)
	}
	namespaceEmpty(t, node.IPC, len(opts.Devices))
	if _, err := a.RequestGen(nil); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("RequestGen after a failed Connect: %v", err)
	}

	// Someone else holds the key of the second daemon's last segment: the
	// first daemon starts, the second gets as far as two segments.
	// Everything of both must be gone, and the squatter's segment not.
	node.IPC = shm.NewIPC(shm.Limits{MaxSegmentBytes: 1 << 30, MaxQueueBytes: 1 << 20})
	if _, err := node.IPC.Shmget(daemonSegKey(1, 2), 8, shm.Create); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(); !errors.Is(err, shm.ErrExists) {
		t.Fatalf("Connect over a squatted segment key: %v, want ErrExists", err)
	}
	squatter, err := node.IPC.Shmget(daemonSegKey(1, 2), 8, shm.Open)
	if err != nil {
		t.Fatalf("the failed Connect removed a segment it did not create: %v", err)
	}
	squatter.Remove()
	namespaceEmpty(t, node.IPC, len(opts.Devices))

	if err := a.Connect(); err != nil {
		t.Fatalf("Connect on the cleaned namespace: %v", err)
	}
	a.Disconnect()
	namespaceEmpty(t, node.IPC, len(opts.Devices))
}

// Every segment must be destroyed, not merely unlinked, once the agent
// disconnects: both sides detach on every exit path of the daemon —
// orderly shutdown and an injected crash alike — so that Remove's deferred
// destruction actually runs.
func TestDisconnectDestroysSegments(t *testing.T) {
	for _, crash := range []bool{false, true} {
		a, cl := connectedAgent(t)
		if _, err := a.RequestGen(nil); err != nil {
			t.Fatal(err)
		}
		segs := a.daemons[0].segs
		for role, seg := range segs {
			if n := seg.Attached(); n != 2 {
				t.Fatalf("crash=%v: segment %d has %d attachments while connected, want agent + daemon", crash, role, n)
			}
		}
		if crash {
			a.CrashDaemon(0)
			for role, seg := range segs {
				if n := seg.Attached(); n != 1 {
					t.Errorf("segment %d: %d attachments after the daemon died, want the agent's only", role, n)
				}
			}
		}
		a.Disconnect()
		for role, seg := range segs {
			if n := seg.Attached(); n != 0 {
				t.Errorf("crash=%v: segment %d still has %d attachments after Disconnect", crash, role, n)
			}
			if _, err := seg.Attach(); !errors.Is(err, shm.ErrRemoved) {
				t.Errorf("crash=%v: segment %d can still be attached after Disconnect: %v", crash, role, err)
			}
		}
		namespaceEmpty(t, cl.Node(0).IPC, 1)
	}
}
