package gxplug

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"gxplug/internal/device"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
	"gxplug/internal/par"
	"gxplug/internal/shm"
)

// A daemon is the accelerator abstraction of §II-A1: it owns one device,
// holds the implemented algorithm template, and runs as an independent
// process (here: a goroutine) that communicates with its agent only
// through System V IPC — message queues for flags, rotating shared
// segments for blocks. Because the daemon outlives iterations, the device
// runtime is initialized exactly once (§IV-C runtime isolation); the
// RawCall option disables that for the Fig 13 comparison.

// daemonConfig wires up one daemon.
type daemonConfig struct {
	index   int
	ipc     *shm.IPC
	dev     *device.Device
	alg     template.Algorithm
	ctx     *template.Context
	segSize int
	// rawCall re-initializes the device around every operation, modelling
	// the naive "agent forks daemons per call" integration.
	rawCall bool
}

// daemonProc is the agent-side handle to a running daemon.
type daemonProc struct {
	cfg   daemonConfig
	reqQ  *shm.Queue
	respQ *shm.Queue
	segs  [3]*shm.Segment
	mem   [3][]byte
	// rot mirrors the daemon's rotation state (both sides rotate on the
	// ExchangeFinished/RotateFinished pair, so they stay in step).
	rot  int
	done sync.WaitGroup
	// crashed marks a daemon killed by an injected fault (fault.go):
	// its request queue is gone and its goroutine has exited.
	crashed bool
	// reply is the last response's payload, handed back to the queue as
	// the next receive buffer.
	reply []byte
}

// phys maps a segment role (roleN/roleC/roleU) to a physical chunk index
// under the current rotation.
func physSeg(role, rot int) int { return (role + rot) % 3 }

// startDaemon creates the daemon's queues and segments in the node's IPC
// namespace and spawns the daemon goroutine. The returned init cost is
// the device bring-up the daemon paid (zero in rawCall mode — it pays per
// call instead). On error nothing it created stays in the namespace.
func startDaemon(cfg daemonConfig) (_ *daemonProc, _ time.Duration, err error) {
	p := &daemonProc{cfg: cfg}
	d := &daemonState{cfg: cfg}
	defer func() {
		if err != nil {
			d.detach()
			p.release()
		}
	}()
	if p.reqQ, err = cfg.ipc.Msgget(daemonReqKey(cfg.index), shm.CreateExclusive); err != nil {
		return nil, 0, fmt.Errorf("gxplug: daemon %d request queue: %w", cfg.index, err)
	}
	if p.respQ, err = cfg.ipc.Msgget(daemonRespKey(cfg.index), shm.CreateExclusive); err != nil {
		return nil, 0, fmt.Errorf("gxplug: daemon %d response queue: %w", cfg.index, err)
	}
	for role := 0; role < 3; role++ {
		seg, err := cfg.ipc.Shmget(daemonSegKey(cfg.index, role), cfg.segSize, shm.CreateExclusive)
		if err != nil {
			return nil, 0, fmt.Errorf("gxplug: daemon %d segment %d: %w", cfg.index, role, err)
		}
		p.segs[role], d.segs[role] = seg, seg
		if p.mem[role], err = seg.Attach(); err != nil {
			return nil, 0, fmt.Errorf("gxplug: daemon %d attach %d: %w", cfg.index, role, err)
		}
		if d.mem[role], err = seg.Attach(); err != nil {
			return nil, 0, fmt.Errorf("gxplug: daemon %d self-attach %d: %w", cfg.index, role, err)
		}
	}
	d.reqQ, d.respQ = p.reqQ, p.respQ
	var initCost time.Duration
	if !cfg.rawCall {
		initCost = cfg.dev.Init()
	}
	d.gen.init(cfg.alg, cfg.ctx)
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		d.run()
	}()
	return p, initCost, nil
}

// shutdown stops the daemon and destroys its IPC objects.
func (p *daemonProc) shutdown() {
	// Best effort: the daemon may already be gone if the queue was removed.
	_ = p.reqQ.Msgsnd(msgShutdown, nil)
	p.done.Wait()
	p.release()
}

// release drops the agent's attachments and removes every IPC object the
// daemon was given, whichever of them exist. The daemon goroutine detaches
// its own side when it exits, so each segment's memory is destroyed here
// (System V deferred destruction: removed and no attachment left).
func (p *daemonProc) release() {
	if p.reqQ != nil {
		p.reqQ.Remove()
	}
	if p.respQ != nil {
		p.respQ.Remove()
	}
	for role, seg := range p.segs {
		if seg == nil {
			continue
		}
		if p.mem[role] != nil {
			_ = seg.Detach() // attached in startDaemon: cannot fail
			p.mem[role] = nil
		}
		seg.Remove()
	}
}

// request sends one control message and waits for the daemon's reply,
// converting protocol errors. It returns the reply type and payload; the
// payload is valid until the next request.
func (p *daemonProc) request(mtype int64, payload []byte) (int64, []byte, error) {
	if err := p.reqQ.Msgsnd(mtype, payload); err != nil {
		return 0, nil, fmt.Errorf("gxplug: daemon %d request: %w", p.cfg.index, err)
	}
	m, err := p.respQ.MsgrcvInto(p.reply, 0, true)
	if err != nil {
		return 0, nil, fmt.Errorf("gxplug: daemon %d response: %w", p.cfg.index, err)
	}
	p.reply = m.Payload
	if m.Type == msgError {
		return 0, nil, fmt.Errorf("gxplug: daemon %d: %s", p.cfg.index, m.Payload)
	}
	return m.Type, m.Payload, nil
}

// daemonState is the daemon-side state; it lives entirely inside the
// daemon goroutine (and, for the length of a launch, the kernel calls the
// device runs on its behalf). Everything a block needs beyond the segment
// itself — the decoded arrays, the MSGGen accumulators, MSGApply's changed
// flags, the cost reply — is owned here, grown to the largest block seen
// and reused, so a warmed-up daemon computes a block without allocating.
type daemonState struct {
	cfg   daemonConfig
	reqQ  *shm.Queue
	respQ *shm.Queue
	segs  [3]*shm.Segment
	mem   [3][]byte
	rot   int

	dec     blockScratch
	gen     genKernel
	changed []bool
	costBuf [8]byte
}

// detach drops the daemon's own segment attachments — on every exit path
// of the daemon goroutine, so that the agent's Remove can destroy the
// memory.
func (d *daemonState) detach() {
	for role, seg := range d.segs {
		if d.mem[role] != nil {
			_ = seg.Detach() // attached in startDaemon: cannot fail
			d.mem[role] = nil
		}
	}
}

// run is the daemon main loop — Algorithm 1 of the paper plus the
// apply/merge operations the agent requests outside the Gen pipeline.
func (d *daemonState) run() {
	defer d.detach()
	for {
		m, err := d.reqQ.Msgrcv(0, true)
		if err != nil {
			return // queue removed: agent tore us down
		}
		switch m.Type {
		case msgShutdown:
			if !d.cfg.rawCall {
				d.cfg.dev.Shutdown()
			}
			return
		case msgExchangeFinished:
			// Rotate(n -> c -> u -> n): the chunk that was being filled
			// becomes the compute chunk, and so on. Adding 2 mod 3 to the
			// base implements the cycle.
			d.rot = (d.rot + 2) % 3
			d.reply(msgRotateFinished, nil)
		case msgCompute:
			seg := d.mem[physSeg(roleC, d.rot)]
			if binary.LittleEndian.Uint32(seg) != blockKindGen {
				d.reply(msgComputeAllFinished, nil)
				continue
			}
			d.replyCost(msgComputeFinished, d.computeGen, seg)
		case msgApply:
			d.replyCost(msgDone, d.computeApply, d.mem[physSeg(roleC, d.rot)])
		case msgMerge:
			d.replyCost(msgDone, d.computeMerge, d.mem[physSeg(roleC, d.rot)])
		default:
			d.reply(msgError, []byte(fmt.Sprintf("unknown request %d", m.Type)))
		}
	}
}

func (d *daemonState) reply(mtype int64, payload []byte) {
	_ = d.respQ.Msgsnd(mtype, payload)
}

// replyCost runs one block operation with the runtime lifecycle around it
// and answers with its virtual cost (or the error text). Persistent
// daemons initialized at startup pay nothing for the lifecycle; rawCall
// mode pays the full bring-up and tear-down around every operation — the
// effect Fig 13 quantifies.
func (d *daemonState) replyCost(mtype int64, op func(seg []byte) (time.Duration, error), seg []byte) {
	var initCost time.Duration
	if d.cfg.rawCall {
		initCost = d.cfg.dev.Init()
	}
	cost, err := op(seg)
	if d.cfg.rawCall {
		d.cfg.dev.Shutdown()
	}
	if err != nil {
		d.reply(msgError, []byte(err.Error()))
		return
	}
	d.reply(mtype, encodeCost(&d.costBuf, initCost+cost))
}

// genChunk is the deterministic parallel grain of MSGGen execution, and the
// device's launch grain: one kernel call is one chunk, accumulating into a
// private buffer; chunk buffers merge in index order so floating-point
// merge order is machine-independent.
const genChunk = device.Grain

// genKernel is the MSGGen launch of one Gen block: the decoded block, one
// partial accumulator per chunk, and the merged result. It is daemon
// state rather than a per-block value so that its arrays outlive the block.
type genKernel struct {
	alg  template.Algorithm
	ctx  *template.Context
	eb   *graph.EdgeBlock
	vb   *graph.VertexBlock
	msgW int

	// Chunk c accumulates into rows [c*(nV+1), (c+1)*(nV+1)) of partAcc —
	// nV accumulator rows, then the row its MSGGen calls write into — and into
	// partRecv[c*nV:(c+1)*nV].
	partAcc  []float64
	partRecv []bool
	acc      []float64
	recv     []bool

	nChunks int
	// k.chunk as the device calls it and k.fold as par.Do does, bound
	// once so that a launch allocates nothing.
	kernel device.Kernel
	folded func(int) error
}

func (k *genKernel) init(alg template.Algorithm, ctx *template.Context) {
	k.alg, k.ctx = alg, ctx
	k.kernel = func(start, _ int) { k.chunk(start / genChunk) }
	k.folded = k.fold
}

// launch runs every chunk of the block on dev — nT items, so the charge
// is the block's — and merges the partials, leaving the block's result in
// k.acc / k.recv. Which goroutine ran a chunk never shows in the result.
func (k *genKernel) launch(dev *device.Device, eb *graph.EdgeBlock, vb *graph.VertexBlock, msgW int, bytesIn, bytesOut int64) (time.Duration, error) {
	nT, nV := len(eb.Triplets), len(vb.IDs)
	k.eb, k.vb, k.msgW = eb, vb, msgW
	k.nChunks = (nT + genChunk - 1) / genChunk
	grow(&k.partAcc, k.nChunks*(nV+1)*msgW)
	grow(&k.partRecv, k.nChunks*nV)
	cost, err := dev.Launch(nT, bytesIn, bytesOut, k.alg.Hints().OpsPerEdge, k.kernel)
	if err != nil {
		return 0, err
	}
	return cost, par.Do(1, k.folded)
}

// fold merges the chunk partials, in chunk order, into k.acc / k.recv. It
// calls MSGMerge like the chunks do, so it runs under the same recover: as
// the one item of a Do, which is a call on this goroutine.
func (k *genKernel) fold(int) error {
	alg, msgW, nV := k.alg, k.msgW, len(k.vb.IDs)
	acc := grow(&k.acc, nV*msgW)
	recv := grow(&k.recv, nV)
	for r := 0; r < nV; r++ {
		alg.MergeIdentity(acc[r*msgW : (r+1)*msgW])
		recv[r] = false
	}
	for c := 0; c < k.nChunks; c++ {
		partAcc := k.partAcc[c*(nV+1)*msgW:]
		partRecv := k.partRecv[c*nV:]
		for r := 0; r < nV; r++ {
			if partRecv[r] {
				alg.MSGMerge(acc[r*msgW:(r+1)*msgW], partAcc[r*msgW:(r+1)*msgW])
				recv[r] = true
			}
		}
	}
	return nil
}

// chunk computes one chunk's partial. Blocks are cut from the
// source-grouped edge table, so the triplets of one SrcRow form a run: the
// source's row is looked up once per run, and an algorithm that declares
// Hints.SourceOnly generates once per run and merges that one message into
// every destination — the value, and the order it is merged in, of a
// per-triplet loop; any other generates once per triplet. A run split by
// the chunk boundary simply generates again at the start of the next
// chunk.
func (k *genKernel) chunk(c int) {
	alg, ctx, eb, vb, msgW := k.alg, k.ctx, k.eb, k.vb, k.msgW
	nV := len(vb.IDs)
	// Capped windows: whatever rows a block names, a chunk cannot reach
	// into another chunk's partials.
	acc := k.partAcc[c*(nV+1)*msgW : (c+1)*(nV+1)*msgW : (c+1)*(nV+1)*msgW]
	recv := k.partRecv[c*nV : (c+1)*nV : (c+1)*nV]
	msgBuf := acc[nV*msgW:]
	for r := 0; r < nV; r++ {
		alg.MergeIdentity(acc[r*msgW : (r+1)*msgW])
		recv[r] = false
	}
	perRun := alg.Hints().SourceOnly
	for rest := eb.Triplets[c*genChunk : min((c+1)*genChunk, len(eb.Triplets))]; len(rest) > 0; {
		srcRow := rest[0].SrcRow
		n := 1
		for n < len(rest) && rest[n].SrcRow == srcRow {
			n++
		}
		run := rest[:n]
		rest = rest[n:]
		srcAttr := vb.Row(int(srcRow))
		produced := false
		for i := range run {
			t := &run[i]
			if !perRun || i == 0 {
				produced = alg.MSGGen(ctx, t.Src, t.Dst, t.W, srcAttr, msgBuf)
			}
			if produced {
				row := int(t.DstRow)
				alg.MSGMerge(acc[row*msgW:(row+1)*msgW], msgBuf)
				recv[row] = true
			}
		}
	}
}

func (d *daemonState) computeGen(seg []byte) (time.Duration, error) {
	eb, vb, msgW, resident, resultOff, err := decodeGenBlock(seg, &d.dec)
	if err != nil {
		return 0, err
	}
	nV := len(vb.IDs)
	for i := range eb.Triplets {
		// The kernel indexes the block's rows with these, and in a reused
		// scratch a row past the block could land in stale capacity
		// instead of panicking.
		if t := &eb.Triplets[i]; uint32(t.SrcRow) >= uint32(nV) || uint32(t.DstRow) >= uint32(nV) {
			return 0, fmt.Errorf("gxplug: triplet %d names rows %d/%d of a %d-vertex block", i, t.SrcRow, t.DstRow, nV)
		}
	}
	bytesIn := int64(resultOff)
	if resident {
		// Topology already on the device: only attributes cross the link.
		bytesIn = int64(nV * (4 + 8*vb.Stride))
	}
	bytesOut := int64(nV*msgW*8 + nV)
	cost, err := d.gen.launch(d.cfg.dev, eb, vb, msgW, bytesIn, bytesOut)
	if err != nil {
		return 0, err
	}
	writeGenResult(seg, resultOff, d.gen.acc, d.gen.recv, uint64(cost))
	return cost, nil
}

func (d *daemonState) computeApply(seg []byte) (time.Duration, error) {
	ids, attrs, attrW, msgs, msgW, recv, resultOff, err := decodeApplyBlock(seg, &d.dec)
	if err != nil {
		return 0, err
	}
	alg, ctx := d.cfg.alg, d.cfg.ctx
	n := len(ids)
	changed := grow(&d.changed, n) // the kernel writes every element
	// Vertices are disjoint: the kernel needs no partials.
	cost, err := d.cfg.dev.Launch(n,
		int64(resultOff), int64(n*attrW*8+n+8),
		alg.Hints().OpsPerVertex,
		func(start, end int) {
			for i := start; i < end; i++ {
				changed[i] = alg.MSGApply(ctx, ids[i],
					attrs[i*attrW:(i+1)*attrW],
					msgs[i*msgW:(i+1)*msgW], recv[i])
			}
		})
	if err != nil {
		return 0, err
	}
	writeApplyResult(seg, 4*4+n*4, attrs, resultOff, changed, uint64(cost))
	return cost, nil
}

func (d *daemonState) computeMerge(seg []byte) (time.Duration, error) {
	accA, accB, msgW, _, err := decodeMergeBlock(seg, &d.dec)
	if err != nil {
		return 0, err
	}
	alg := d.cfg.alg
	rows := len(accA) / msgW
	cost, err := d.cfg.dev.Launch(rows,
		int64(len(accA)+len(accB))*8, int64(len(accA))*8,
		float64(msgW),
		func(start, end int) {
			for r := start; r < end; r++ {
				alg.MSGMerge(accA[r*msgW:(r+1)*msgW], accB[r*msgW:(r+1)*msgW])
			}
		})
	if err != nil {
		return 0, err
	}
	writeMergeResult(seg, accA, uint64(cost))
	return cost, nil
}
