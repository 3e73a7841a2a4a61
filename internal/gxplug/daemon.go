package gxplug

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"gxplug/internal/device"
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
	"gxplug/internal/le"
	"gxplug/internal/par"
	"gxplug/internal/shm"
)

// A daemon is the accelerator abstraction of §II-A1: it owns one device,
// holds the implemented algorithm template, and runs as an independent
// process (here: a goroutine) that communicates with its agent only
// through System V IPC — message queues for flags, shared segments for
// blocks. Because the daemon outlives iterations, the device runtime is
// initialized exactly once (§IV-C runtime isolation); the RawCall option
// disables that for the Fig 13 comparison.

// daemonConfig wires up one daemon.
type daemonConfig struct {
	index    int
	ipc      *shm.IPC
	dev      *device.Device
	alg      template.Algorithm
	ctx      *template.Context
	segSizes [4]int
	topo     *shm.Segment // the agent's, which the daemon attaches
	// rawCall re-initializes the device around every operation, modelling
	// the naive "agent forks daemons per call" integration.
	rawCall bool
}

// daemonProc is the agent-side handle to a running daemon.
type daemonProc struct {
	cfg   daemonConfig
	reqQ  *shm.Queue
	respQ *shm.Queue
	segs  [4]*shm.Segment // the three rotating, then segApplyMerge
	mem   [4][]byte
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
// namespace, attaches the daemon to them and to the agent's topology
// segment, and spawns the daemon goroutine. The returned init cost is
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
	for i := range p.segs {
		seg, err := cfg.ipc.Shmget(daemonSegKey(cfg.index, i), cfg.segSizes[i], shm.CreateExclusive)
		if err != nil {
			return nil, 0, fmt.Errorf("gxplug: daemon %d segment %d: %w", cfg.index, i, err)
		}
		p.segs[i], d.segs[i] = seg, seg
		p.mem[i], _ = seg.Attach() // just created: cannot fail
		d.mem[i], _ = seg.Attach()
	}
	d.topo, _ = cfg.topo.Attach() // the agent's, removed after this daemon stops
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
	for _, seg := range p.segs {
		if seg != nil {
			_ = seg.Detach() // attached with its creation: cannot fail
			seg.Remove()
		}
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
	segs  [4]*shm.Segment
	mem   [4][]byte
	rot   int
	topo  []byte // the daemon's attachment of cfg.topo

	dec     blockScratch
	gen     genKernel
	changed []bool
	costBuf [costBytes]byte
}

// detach drops the daemon's segment attachments, the topology's
// included — on every exit path of the daemon goroutine, so that the
// agent's Remove can destroy the memory.
func (d *daemonState) detach() {
	for _, seg := range d.segs {
		if seg != nil {
			_ = seg.Detach() // attached with its creation: cannot fail
		}
	}
	if d.topo != nil {
		_ = d.cfg.topo.Detach()
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
			d.replyCost(msgDone, d.computeApply, d.mem[segApplyMerge])
		case msgMerge:
			d.replyCost(msgDone, d.computeMerge, d.mem[segApplyMerge])
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

// genKernel is the MSGGen launch of one Gen block: the block, one partial
// accumulator per chunk, and the merged result. It is daemon state rather
// than a per-block value so that its arrays outlive the block.
type genKernel struct {
	alg template.Algorithm
	ctx *template.Context
	op  template.MergeOp // alg's declared merge, read once
	// blk is the block in flight. Its triplets are read in place from the
	// topology segment, and no row they name is used before the chunk
	// reading it has checked it.
	blk genBlock

	// The partials' geometry: nChunks chunks over nV rows of msgW values,
	// the block in flight's from the time prepare sizes them; msgW is the
	// algorithm's, the only width a daemon computes at. Chunk c
	// accumulates into rows [c*(nV+1), (c+1)*(nV+1)) of partAcc — nV
	// accumulator rows, then the row its MSGGen calls write into — and into
	// partRecv[c*nV:(c+1)*nV], and lists the rows it merged into, in
	// first-touch order, in touched[c*genChunk:][:nTouched[c]]. bad[c] is
	// the index of the first triplet of chunk c that names a row outside
	// the block, or -1.
	//
	// Between launches every partial row holds the merge identity, which
	// ident holds one row of, and every partRecv flag is false — all but
	// the rows the last launch wrote: its touched rows and its chunks'
	// message rows. The next launch copies ident over those under the last
	// geometry before it sizes its own, so a launch's partials stand until
	// then, a failed one's too.
	nChunks, nV, msgW int
	ident             []float64
	partAcc           []float64
	partRecv          []bool
	touched           []int32
	nTouched          []int
	bad               []int
	acc               []float64
	recv              []bool

	// k.chunk as the device calls it, and k.fold as par.Do does, bound
	// once so that a launch allocates nothing.
	kernel device.Kernel
	folded func(int) error
}

// init binds the kernel to alg. Its identity row is filled here, on the
// goroutine that starts the daemon, as NewMsgBuf fills the agent's.
func (k *genKernel) init(alg template.Algorithm, ctx *template.Context) {
	k.alg, k.ctx, k.op, k.msgW = alg, ctx, alg.Hints().Merge, alg.MsgWidth()
	k.ident = make([]float64, k.msgW)
	alg.MergeIdentity(k.ident)
	k.kernel = func(start, _ int) { k.chunk(start / genChunk) }
	k.folded = k.fold
}

// launch runs every chunk of the block on dev — nT items, so the charge
// is the block's — and merges the partials, leaving the block's result in
// k.acc / k.recv. Which goroutine ran a chunk never shows in the result. A
// triplet naming a row outside the block fails the launch, and the error
// names the lowest such triplet.
func (k *genKernel) launch(dev *device.Device, b genBlock, bytesIn, bytesOut int64) (time.Duration, error) {
	nT := len(b.trips) / tripletBytes
	k.blk = b
	k.prepare()
	cost, err := dev.Launch(nT, bytesIn, bytesOut, k.alg.Hints().OpsPerEdge, k.kernel)
	if err != nil {
		return 0, err
	}
	for _, i := range k.bad {
		if i >= 0 {
			return 0, k.rowError(i)
		}
	}
	return cost, par.Do(1, k.folded)
}

// rowError reports that triplet i of the block in flight names a row
// outside it.
func (k *genKernel) rowError(i int) error {
	t := k.blk.trips[i*tripletBytes:]
	return fmt.Errorf("gxplug: triplet %d names rows %d/%d of a %d-vertex block", i,
		int32(binary.LittleEndian.Uint32(t[tripSrcRow:])), int32(binary.LittleEndian.Uint32(t[tripDstRow:])), k.blk.nV)
}

// prepare resets the rows the last launch wrote to the merge identity,
// under that launch's geometry, and then sizes the partials for the block
// in flight. A slab it allocates is filled from ident whole.
func (k *genKernel) prepare() {
	nV, msgW := k.nV, k.msgW
	for c := 0; c < k.nChunks; c++ {
		part := k.partAcc[c*(nV+1)*msgW : (c+1)*(nV+1)*msgW]
		recv := k.partRecv[c*nV : (c+1)*nV]
		for _, r := range k.touched[c*genChunk:][:k.nTouched[c]] {
			copy(part[int(r)*msgW:(int(r)+1)*msgW], k.ident)
			recv[r] = false
		}
		copy(part[nV*msgW:], k.ident)
	}
	k.nChunks, k.nV = (len(k.blk.trips)/tripletBytes+genChunk-1)/genChunk, k.blk.nV
	grow(&k.partRecv, k.nChunks*k.nV)
	grow(&k.touched, k.nChunks*genChunk)
	clear(grow(&k.nTouched, k.nChunks))
	grow(&k.bad, k.nChunks)
	n := k.nChunks * (k.nV + 1) * msgW
	if cap(k.partAcc) < n {
		k.partAcc = make([]float64, n)
		for filled := copy(k.partAcc, k.ident); filled < n; filled *= 2 {
			copy(k.partAcc[filled:], k.partAcc[:filled])
		}
	}
	k.partAcc = k.partAcc[:n]
}

// fold merges the chunk partials, in chunk order, into k.acc / k.recv:
// each chunk's touched rows, which are the rows whose partRecv flag it set,
// so every row meets the merges of a walk over all rows. It may call
// MSGMerge like the chunks do, so it runs under the same recover: as the
// one item of a Do, which is a call on this goroutine.
func (k *genKernel) fold(int) error {
	alg, op, msgW, nV := k.alg, k.op, k.msgW, k.nV
	acc := grow(&k.acc, nV*msgW)
	fillIdentity(alg, acc, msgW)
	recv := grow(&k.recv, nV)
	clear(recv)
	for c := 0; c < k.nChunks; c++ {
		part := k.partAcc[c*(nV+1)*msgW:]
		for _, r := range k.touched[c*genChunk:][:k.nTouched[c]] {
			// mergeRow, spelled out so that the typed loops inline.
			dst, src := acc[int(r)*msgW:(int(r)+1)*msgW], part[int(r)*msgW:(int(r)+1)*msgW]
			switch op {
			case template.MergeSum:
				sumRow(dst, src)
			case template.MergeMin:
				minRow(dst, src)
			default:
				alg.MSGMerge(dst, src)
			}
			recv[r] = true
		}
	}
	return nil
}

// chunk computes one chunk's partial, reading its triplets in place from
// the topology segment. Blocks are cut from the source-grouped edge
// table, so the triplets of one srcRow form a run: the source's row is
// checked and looked up once per run, and an algorithm that declares
// Hints.SourceOnly generates once per run and merges that one message into
// every destination — the value, and the order it is merged in, of a
// per-triplet loop; any other generates once per triplet. A run split by
// the chunk boundary simply generates again at the start of the next
// chunk. The rows come from shared memory, and in a reused scratch a row
// past the block could land in stale capacity instead of panicking, so
// the first triplet naming a row outside the block stops the chunk and is
// recorded in bad[c]. The partials start at identity (prepare); a row is
// listed as touched before anything merges into it, and the count is
// stored on every way out, so that the next launch resets it even if this
// one panics.
func (k *genKernel) chunk(c int) {
	alg, ctx, op, b := k.alg, k.ctx, k.op, &k.blk
	nV, attrW, msgW := k.nV, b.attrW, k.msgW
	// Capped windows: whatever rows a block names, a chunk cannot reach
	// into another chunk's partials.
	acc := k.partAcc[c*(nV+1)*msgW : (c+1)*(nV+1)*msgW : (c+1)*(nV+1)*msgW]
	recv := k.partRecv[c*nV : (c+1)*nV : (c+1)*nV]
	touched := k.touched[c*genChunk : (c+1)*genChunk : (c+1)*genChunk]
	msgBuf := acc[nV*msgW:]
	k.bad[c] = -1
	n := 0 // rows touched
	defer func() { k.nTouched[c] = n }()
	perRun := alg.Hints().SourceOnly
	lo := c * genChunk
	sec := b.trips[lo*tripletBytes : min(lo+genChunk, len(b.trips)/tripletBytes)*tripletBytes]
	for off := 0; off < len(sec); {
		srcRow := binary.LittleEndian.Uint32(sec[off+tripSrcRow:])
		if srcRow >= uint32(nV) {
			k.bad[c] = lo + off/tripletBytes
			return
		}
		srcAttr := b.attrs[int(srcRow)*attrW : (int(srcRow)+1)*attrW]
		produced := false
		for first := true; off < len(sec); off += tripletBytes {
			t := sec[off : off+tripletBytes]
			if binary.LittleEndian.Uint32(t[tripSrcRow:]) != srcRow {
				break // the next run
			}
			row := binary.LittleEndian.Uint32(t[tripDstRow:])
			if row >= uint32(nV) {
				k.bad[c] = lo + off/tripletBytes
				return
			}
			if first || !perRun {
				produced = alg.MSGGen(ctx,
					graph.VertexID(binary.LittleEndian.Uint32(t[tripSrc:])),
					graph.VertexID(binary.LittleEndian.Uint32(t[tripDst:])),
					math.Float64frombits(binary.LittleEndian.Uint64(t[tripW:])),
					srcAttr, msgBuf)
				first = false
			}
			if produced {
				if !recv[row] {
					recv[row] = true
					touched[n] = int32(row)
					n++
				}
				// mergeRow, spelled out so that the typed loops inline.
				dst := acc[int(row)*msgW : (int(row)+1)*msgW]
				switch op {
				case template.MergeSum:
					sumRow(dst, msgBuf)
				case template.MergeMin:
					minRow(dst, msgBuf)
				default:
					alg.MSGMerge(dst, msgBuf)
				}
			}
		}
	}
}

// widths refuses a block laid out at row widths other than the
// algorithm's, before a kernel runs: the agent lays every block out at its
// algorithm's widths, and the kernels size and fill rows by them. A merge
// block, which has message rows alone, passes the algorithm's attrW.
func (d *daemonState) widths(block string, attrW, msgW int) error {
	if aw, mw := d.cfg.alg.AttrWidth(), d.cfg.alg.MsgWidth(); attrW != aw || msgW != mw {
		return fmt.Errorf("gxplug: %s block has rows %d/%d wide (attribute/message), the algorithm's are %d/%d", block, attrW, msgW, aw, mw)
	}
	return nil
}

func (d *daemonState) computeGen(seg []byte) (time.Duration, error) {
	b, err := decodeGenBlock(seg, d.topo, &d.dec)
	if err == nil {
		err = d.widths("gen", b.attrW, b.msgW)
	}
	if err != nil {
		return 0, err
	}
	l := b.at
	cost, err := d.gen.launch(d.cfg.dev, b, genBytesIn(int64(len(b.trips)/tripletBytes), int64(b.nV), int64(b.attrW), b.resident), l.end-l.acc)
	if err != nil {
		return 0, err
	}
	le.Put(seg[l.acc:l.recv], d.gen.acc)
	putBools(seg[l.recv:l.end], d.gen.recv)
	return cost, nil
}

func (d *daemonState) computeApply(seg []byte) (time.Duration, error) {
	b, err := decodeApplyBlock(seg, &d.dec)
	if err == nil {
		err = d.widths("apply", b.attrW, b.msgW)
	}
	if err != nil {
		return 0, err
	}
	alg, ctx, l := d.cfg.alg, d.cfg.ctx, b.at
	ids, attrs, msgs, recv, attrW, msgW := b.ids, b.attrs, b.msgs, b.recv, b.attrW, b.msgW
	n := len(ids)
	changed := grow(&d.changed, n) // the kernel writes every element
	// Vertices are disjoint: the kernel needs no partials. What comes back
	// is the applied rows, the changed flags and the reply's cost word.
	cost, err := d.cfg.dev.Launch(n,
		l.changed, (l.msgs-l.attrs)+(l.end-l.changed)+costBytes,
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
	le.Put(seg[l.attrs:l.msgs], attrs)
	putBools(seg[l.changed:l.end], changed)
	return cost, nil
}

func (d *daemonState) computeMerge(seg []byte) (time.Duration, error) {
	m, err := decodeMergeBlock(seg, &d.dec)
	if err == nil {
		err = d.widths("merge", d.cfg.alg.AttrWidth(), m.msgW)
	}
	if err != nil {
		return 0, err
	}
	alg, op, l := d.cfg.alg, d.cfg.alg.Hints().Merge, m.at
	accA, accB, msgW := m.a, m.b, m.msgW
	cost, err := d.cfg.dev.Launch(len(accA)/msgW,
		l.end-l.a, l.b-l.a,
		float64(msgW),
		func(start, end int) {
			// A declared operator works per element, so a run of rows folds
			// as one flat row.
			a, b := accA[start*msgW:end*msgW], accB[start*msgW:end*msgW]
			switch op {
			case template.MergeSum:
				sumRow(a, b)
			case template.MergeMin:
				minRow(a, b)
			default:
				for r := 0; r < end-start; r++ {
					alg.MSGMerge(a[r*msgW:(r+1)*msgW], b[r*msgW:(r+1)*msgW])
				}
			}
		})
	if err != nil {
		return 0, err
	}
	le.Put(seg[l.a:l.b], accA)
	return cost, nil
}
