package gxplug

import (
	"fmt"
	"sort"

	"gxplug/internal/graph"
	"gxplug/internal/gxplug/template"
)

// This file implements the dense message routing buffers that replace the
// per-message map allocations on the superstep hot path. An Outbox holds a
// sender's remote-bound messages densely over the global vertex-id range;
// an Inbox holds a receiver's incoming messages densely over its master
// rows. Both keep a touched-row list so resets and iteration cost O(live
// messages), not O(vertices), and both reuse their buffers across
// supersteps — after warm-up the routing path allocates nothing.

// Outbox accumulates messages destined to vertices mastered on other
// nodes. Messages for the same destination are pre-merged with MSGMerge as
// they are added (combining), exactly as the map-based outbox did. Every
// destination must lie inside the dense range [0, numV): the engine sizes
// the outbox over the global id range and routes by the same id, so an
// out-of-range id is a bug and Add panics on it (index out of range).
type Outbox struct {
	mw   int
	acc  []float64 // numV rows of mw, identity where untouched
	recv []bool
	ids  []graph.VertexID // touched ids in first-touch order
}

// NewOutbox creates an outbox over the dense id range [0, numV) with
// message width mw. All rows start at the algorithm's merge identity.
func NewOutbox(alg template.Algorithm, numV, mw int) *Outbox {
	ob := &Outbox{
		mw:   mw,
		acc:  make([]float64, numV*mw),
		recv: make([]bool, numV),
	}
	for v := 0; v < numV; v++ {
		alg.MergeIdentity(ob.acc[v*mw : (v+1)*mw])
	}
	return ob
}

// Reset returns the outbox to its empty state, re-identifying only the
// rows the previous superstep touched.
func (ob *Outbox) Reset(alg template.Algorithm) {
	mw := ob.mw
	for _, id := range ob.ids {
		alg.MergeIdentity(ob.acc[int(id)*mw : (int(id)+1)*mw])
		ob.recv[id] = false
	}
	ob.ids = ob.ids[:0]
}

// Add merges one message for a destination vertex.
func (ob *Outbox) Add(alg template.Algorithm, id graph.VertexID, msg []float64) {
	i := int(id)
	if !ob.recv[i] {
		ob.recv[i] = true
		ob.ids = append(ob.ids, id)
	}
	alg.MSGMerge(ob.acc[i*ob.mw:(i+1)*ob.mw], msg)
}

// Len returns the number of distinct destination vertices held.
func (ob *Outbox) Len() int { return len(ob.ids) }

// Each visits every destination with its merged message in first-touch
// order. The msg slice aliases the outbox; callers must not retain it
// past the call.
func (ob *Outbox) Each(fn func(id graph.VertexID, msg []float64)) {
	mw := ob.mw
	for _, id := range ob.ids {
		fn(id, ob.acc[int(id)*mw:(int(id)+1)*mw])
	}
}

// Inbox holds the messages routed to one node, dense over its master rows
// (index i corresponds to Partition.Masters[i]). Untouched rows hold the
// merge identity, so the whole accumulator can be handed to a device-side
// merge kernel directly.
type Inbox struct {
	mw      int
	acc     []float64 // masters rows of mw, identity where untouched
	recv    []bool
	touched []int32 // touched master rows in first-touch order
}

// NewInbox creates an inbox for a node with the given master count and
// message width. All rows start at the merge identity.
func NewInbox(alg template.Algorithm, masters, mw int) *Inbox {
	in := &Inbox{
		mw:   mw,
		acc:  make([]float64, masters*mw),
		recv: make([]bool, masters),
	}
	for i := 0; i < masters; i++ {
		alg.MergeIdentity(in.acc[i*mw : (i+1)*mw])
	}
	return in
}

// Reset empties the inbox, re-identifying only previously touched rows.
func (in *Inbox) Reset(alg template.Algorithm) {
	mw := in.mw
	for _, mi := range in.touched {
		alg.MergeIdentity(in.acc[int(mi)*mw : (int(mi)+1)*mw])
		in.recv[mi] = false
	}
	in.touched = in.touched[:0]
}

// Merge folds one message into master row mi.
func (in *Inbox) Merge(alg template.Algorithm, mi int32, msg []float64) {
	if !in.recv[mi] {
		in.recv[mi] = true
		in.touched = append(in.touched, mi)
	}
	alg.MSGMerge(in.acc[int(mi)*in.mw:(int(mi)+1)*in.mw], msg)
}

// Len returns the number of master rows that received a message.
func (in *Inbox) Len() int { return len(in.touched) }

// Rows returns the inbox geometry (the node's master count).
func (in *Inbox) Rows() int { return len(in.recv) }

// Touched returns the master rows with messages, in first-touch order.
// The slice aliases the inbox; callers must not retain or mutate it.
func (in *Inbox) Touched() []int32 { return in.touched }

// Row returns master row mi's merged message (aliasing the inbox).
func (in *Inbox) Row(mi int32) []float64 {
	return in.acc[int(mi)*in.mw : (int(mi)+1)*in.mw]
}

// Acc exposes the full dense accumulator (identity in untouched rows) for
// device-side merges.
func (in *Inbox) Acc() []float64 { return in.acc }

// InboxFromMap builds an Inbox from a vertex-keyed message map against a
// node's ascending master list — the legacy routing representation, kept
// for tests that assert dense/map equivalence. Messages addressed to
// vertices the node does not master are rejected: silent misdelivery
// would corrupt results.
func InboxFromMap(alg template.Algorithm, masters []graph.VertexID, mw int,
	incoming map[graph.VertexID][]float64) (*Inbox, error) {
	in := NewInbox(alg, len(masters), mw)
	ids := make([]graph.VertexID, 0, len(incoming))
	for id := range incoming {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		mi := sort.Search(len(masters), func(i int) bool { return masters[i] >= id })
		if mi == len(masters) || masters[mi] != id {
			return nil, fmt.Errorf("gxplug: incoming message for non-master %d", id)
		}
		in.Merge(alg, int32(mi), incoming[id])
	}
	return in, nil
}
