package gxplug

import (
	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// This file holds the one message buffer of the per-iteration interface:
// what MSGGen produces, what the engine routes, and what MSGMerge and
// MSGApply consume are all MsgBufs. Buffers are reused across supersteps
// and keep a touched-row list, so resets and iteration cost O(live
// messages), not O(vertices) — after warm-up the message path allocates
// nothing.

// MsgBuf holds merged messages for one node's masters, dense over its
// master rows (row i corresponds to Partition.Masters[i]). Messages for
// the same row are combined with MSGMerge as they arrive; untouched rows
// hold the merge identity, so the whole accumulator can be handed to a
// device-side merge kernel directly.
type MsgBuf struct {
	alg     template.Algorithm // supplies MergeIdentity, MSGMerge and the row width
	mw      int32              // beside op in one word, to keep the struct at 96 bytes
	op      template.MergeOp   // alg's declared merge, read once
	acc     []float64          // rows of mw, identity where untouched
	recv    []bool
	touched []int32 // rows with recv set, in first-touch order
}

// NewMsgBuf creates a buffer of the given row count for alg's messages.
// All rows start at the merge identity.
func NewMsgBuf(alg template.Algorithm, rows int) *MsgBuf {
	mw := alg.MsgWidth()
	b := &MsgBuf{alg: alg, mw: int32(mw), op: alg.Hints().Merge, acc: make([]float64, rows*mw), recv: make([]bool, rows)}
	fillIdentity(alg, b.acc, mw)
	return b
}

// mergeRow folds msg into acc by op: a typed loop for a declared operator,
// MSGMerge otherwise.
func mergeRow(op template.MergeOp, alg template.Algorithm, acc, msg []float64) {
	switch op {
	case template.MergeSum:
		sumRow(acc, msg)
	case template.MergeMin:
		minRow(acc, msg)
	default:
		alg.MSGMerge(acc, msg)
	}
}

// sumRow is MergeSum over acc's elements.
func sumRow(acc, msg []float64) {
	msg = msg[:len(acc)]
	for i, v := range msg {
		acc[i] += v
	}
}

// minRow is MergeMin over acc's elements.
func minRow(acc, msg []float64) {
	msg = msg[:len(acc)]
	for i, v := range msg {
		if v < acc[i] {
			acc[i] = v
		}
	}
}

// fillIdentity sets every mw-wide row of acc to alg's merge identity: one
// MergeIdentity call, then doubling copies of what is already filled.
func fillIdentity(alg template.Algorithm, acc []float64, mw int) {
	if len(acc) == 0 {
		return
	}
	alg.MergeIdentity(acc[:mw])
	for filled := mw; filled < len(acc); filled *= 2 {
		copy(acc[filled:], acc[:filled])
	}
}

// Reset empties the buffer, re-identifying only the touched rows.
func (b *MsgBuf) Reset() {
	for _, row := range b.touched {
		b.alg.MergeIdentity(b.Row(row))
		b.recv[row] = false
	}
	b.touched = b.touched[:0]
}

// Touch marks a row as having received a message without merging one —
// for callers that fold messages into Acc wholesale (RequestMerge's
// device kernel).
func (b *MsgBuf) Touch(row int32) {
	if !b.recv[row] {
		b.recv[row] = true
		b.touched = append(b.touched, row)
	}
}

// Merge folds one message into a row.
func (b *MsgBuf) Merge(row int32, msg []float64) {
	b.Touch(row)
	mergeRow(b.op, b.alg, b.Row(row), msg)
}

// Recv reports whether a row received a message.
func (b *MsgBuf) Recv(row int32) bool { return b.recv[row] }

// Len returns the number of rows that received a message.
func (b *MsgBuf) Len() int { return len(b.touched) }

// Rows returns the buffer geometry (the node's master count).
func (b *MsgBuf) Rows() int { return len(b.recv) }

// Touched returns the rows with messages, in first-touch order. The
// slice aliases the buffer; callers must not retain or mutate it.
func (b *MsgBuf) Touched() []int32 { return b.touched }

// Row returns a row's merged message (aliasing the buffer).
func (b *MsgBuf) Row(row int32) []float64 {
	mw := int(b.mw)
	return b.acc[int(row)*mw : (int(row)+1)*mw]
}

// Acc exposes the full dense accumulator (identity in untouched rows) for
// device-side merges.
func (b *MsgBuf) Acc() []float64 { return b.acc }

// GenResult is the outcome of one RequestGen: one MsgBuf per destination
// node, addressed through the partitioning's routing index. The sender's
// own slot is its local accumulator, which RequestMerge and RequestApply
// go on to use; the other slots are what the engine routes. Results are
// reused across supersteps (NewGenResult + Reset).
type GenResult struct {
	// To[o] holds the messages for vertices mastered on node o.
	To []*MsgBuf
	// Entities is the number of triplets processed this iteration.
	Entities int

	part *graph.Partitioning
	self int
	// acc and recv are the slabs the buffers are windows of, node after
	// node: vertex v's row is part.Slot[v] in both.
	acc  []float64
	recv []bool
}

// NewGenResult allocates a reusable result for node self of a
// partitioning. Its buffers are windows of one accumulator slab and one
// flag slab (a row per master of every node), capped so that no buffer can
// reach into its neighbour.
func NewGenResult(alg template.Algorithm, part *graph.Partitioning, self int) *GenResult {
	mw, op := alg.MsgWidth(), alg.Hints().Merge
	rows := 0
	for _, p := range part.Parts {
		rows += len(p.Masters)
	}
	acc, recv := make([]float64, rows*mw), make([]bool, rows)
	fillIdentity(alg, acc, mw)
	bufs := make([]MsgBuf, len(part.Parts))
	res := &GenResult{To: make([]*MsgBuf, len(part.Parts)), part: part, self: self, acc: acc, recv: recv}
	for o, p := range part.Parts {
		n := len(p.Masters)
		bufs[o] = MsgBuf{alg: alg, mw: int32(mw), op: op, acc: acc[: n*mw : n*mw], recv: recv[:n:n]}
		acc, recv = acc[n*mw:], recv[n:]
		res.To[o] = &bufs[o]
	}
	return res
}

// Reset prepares the result for the next superstep.
func (res *GenResult) Reset() {
	for _, b := range res.To {
		b.Reset()
	}
	res.Entities = 0
}

// Local returns the sender's own slot: the messages for its masters.
func (res *GenResult) Local() *MsgBuf { return res.To[res.self] }

// Slabs returns the accumulator and flag slabs the result's buffers are
// windows of: vertex v's message is row Partitioning.Slot[v] of both. A
// caller folding into them directly calls Touch(v) where v's flag is
// still false, and then folds — that is Add, in the caller's own loop.
func (res *GenResult) Slabs() ([]float64, []bool) { return res.acc, res.recv }

// Touch records vertex v's first message: it sets v's flag and appends v's
// row to its owner's first-touch list.
func (res *GenResult) Touch(v graph.VertexID) {
	res.To[res.part.Owner[v]].Touch(res.part.MasterRow[v])
}

// Add merges one message for vertex id into its row of the slab. id must
// lie inside the partitioned graph; an out-of-range id is a bug and
// panics.
func (res *GenResult) Add(id graph.VertexID, msg []float64) {
	s := int(res.part.Slot[id])
	if !res.recv[s] {
		res.Touch(id)
	}
	b := res.Local() // every buffer has the same algorithm, op and width
	mw := int(b.mw)
	mergeRow(b.op, b.alg, res.acc[s*mw:(s+1)*mw], msg)
}
