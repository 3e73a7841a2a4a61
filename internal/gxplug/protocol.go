package gxplug

import (
	"encoding/binary"
	"time"

	"gxplug/internal/shm"
)

// The daemon-agent control protocol flows over System V message queues,
// one request queue and one response queue per daemon. Bulk data never
// rides the queues: each daemon's three rotating segments (the n/c/u
// chunks of pipeline shuffle, §III-A2b) carry Gen blocks, a fourth Apply
// and Merge blocks, and the agent's topology segment the triplets Gen
// blocks name. Queue messages carry only flags and small headers, as in
// Algorithms 1 and 2 of the paper, and order every segment access.

// Message types (the Msg.Type field). Names follow the paper's flags.
const (
	// msgExchangeFinished — agent → daemon: the agent has finished filling
	// the n-segment and draining the u-segment; rotate n→c→u→n.
	msgExchangeFinished int64 = iota + 1
	// msgRotateFinished — daemon → agent: rotation done.
	msgRotateFinished
	// msgCompute — agent → daemon: process the current c-segment.
	msgCompute
	// msgComputeFinished — daemon → agent: c-segment processed; payload
	// carries the device cost.
	msgComputeFinished
	// msgComputeAllFinished — daemon → agent: c-segment was empty; the
	// iteration's stream is drained.
	msgComputeAllFinished
	// msgApply — agent → daemon: run MSGApply over the apply segment.
	msgApply
	// msgMerge — agent → daemon: run MSGMerge over the merge segment.
	msgMerge
	// msgDone — daemon → agent: apply/merge finished; payload carries cost.
	msgDone
	// msgShutdown — agent → daemon: terminate.
	msgShutdown
	// msgError — daemon → agent: operation failed; payload is the error text.
	msgError
)

// queueMsgOverhead is the virtual cost of one control message through a
// System V queue (syscall + copy of a tiny payload). Each block costs the
// pipeline a handful of these; they are part of T_call.
const queueMsgOverhead = 1 * time.Microsecond

// segment roles within a daemon's three-chunk rotation, and the index of
// its segment outside the rotation.
const (
	roleN         = 0 // being filled with new data by Thread.Download
	roleC         = 1 // being computed by the daemon
	roleU         = 2 // holding results for Thread.Upload
	segApplyMerge = 3 // the Apply or Merge block in flight
)

// costBytes is the size of the cost word a block operation's reply
// carries: the operation's virtual device time, the only place the cost
// travels.
const costBytes = 8

// encodeCost packs a duration into buf for a response payload (the queue
// copies it on send, so the daemon reuses one buffer).
func encodeCost(buf *[costBytes]byte, d time.Duration) []byte {
	binary.LittleEndian.PutUint64(buf[:], uint64(d))
	return buf[:]
}

// decodeCost unpacks a response payload.
func decodeCost(p []byte) time.Duration {
	if len(p) < costBytes {
		return 0
	}
	return time.Duration(binary.LittleEndian.Uint64(p))
}

// keys derive the IPC keys of daemon d on a node (1000+10d to 1005+10d)
// and of its agent's topology segment. Agents and daemons must agree on
// these, like well-known System V keys in the real middleware.
func daemonReqKey(d int) shm.Key      { return shm.Key(1000 + 10*d) }
func daemonRespKey(d int) shm.Key     { return shm.Key(1001 + 10*d) }
func daemonSegKey(d, seg int) shm.Key { return shm.Key(1002 + 10*d + seg) }

const topoKey shm.Key = 999
