// Package shm reimplements the subset of the UNIX System V IPC API that
// GX-Plug's daemon–agent framework is built on: key-addressed shared
// memory segments (shmget/shmat/shmdt + removal) and message queues
// (msgget/msgsnd/msgrcv).
//
// In the paper, agents live inside upper-system processes (a JVM executor
// or a PowerGraph worker) and daemons are separate accelerator-owning
// processes; the two sides share graph data through System V segments and
// exchange control flags through message queues (§II-B, §IV-C). This
// reproduction runs daemons and agents as goroutine "processes" that are
// *only* allowed to communicate through this package, preserving the
// architecture — including the property that a daemon outlives any single
// iteration, which is what the runtime-isolation experiment (Fig 13)
// measures.
package shm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Key identifies a segment or queue, like a System V IPC key.
type Key int64

// Errors mirror the errno values the System V calls produce.
var (
	// ErrExists corresponds to EEXIST: IPC_CREAT|IPC_EXCL on an existing key.
	ErrExists = errors.New("shm: key already exists")
	// ErrNotFound corresponds to ENOENT: no object for the key and no IPC_CREAT.
	ErrNotFound = errors.New("shm: no object for key")
	// ErrRemoved corresponds to EIDRM: object removed while in use.
	ErrRemoved = errors.New("shm: object was removed")
	// ErrTooBig corresponds to EINVAL/E2BIG: size above the configured limit.
	ErrTooBig = errors.New("shm: size exceeds limit")
	// ErrNoMsg corresponds to ENOMSG: non-blocking receive found no message.
	ErrNoMsg = errors.New("shm: no message of requested type")
	// ErrBadSize corresponds to EINVAL: non-positive segment size.
	ErrBadSize = errors.New("shm: invalid size")
)

// Limits bound the simulated kernel, like SHMMAX / MSGMNB.
type Limits struct {
	// MaxSegmentBytes bounds a single shared memory segment (SHMMAX).
	MaxSegmentBytes int
	// MaxQueueBytes bounds the total payload queued on one message queue
	// (MSGMNB). Msgsnd blocks while the queue is full.
	MaxQueueBytes int
}

// DefaultLimits matches a generously configured Linux host.
func DefaultLimits() Limits {
	return Limits{
		MaxSegmentBytes: 1 << 30, // 1 GiB
		MaxQueueBytes:   1 << 20, // 1 MiB of queued payload
	}
}

// IPC is one simulated kernel IPC namespace. Every cluster node in the
// GX-Plug simulation owns its own namespace: agents and daemons on the
// same node share it, components on different nodes cannot.
type IPC struct {
	mu     sync.Mutex
	lim    Limits
	segs   map[Key]*Segment
	queues map[Key]*Queue
	nextID int

	// Cumulative counters behind Stats. Creations are counted under mu,
	// which Shmget and Msgget hold anyway; message traffic is counted
	// atomically so that Msgsnd and Msgrcv never take the namespace lock.
	segmentsCreated int
	queuesCreated   int
	messagesSent    atomic.Int64
	bytesCopied     atomic.Int64
}

// Stats counts IPC activity; the harness charges virtual transfer time for
// BytesCopied through message queues (shared segments are zero-copy, which
// is the point of the design — see §II-B "benefits").
type Stats struct {
	SegmentsCreated int
	QueuesCreated   int
	MessagesSent    int
	BytesCopied     int64
}

// NewIPC creates an empty namespace with the given limits.
func NewIPC(lim Limits) *IPC {
	return &IPC{
		lim:    lim,
		segs:   make(map[Key]*Segment),
		queues: make(map[Key]*Queue),
	}
}

// Stats returns a snapshot of the namespace counters.
func (ipc *IPC) Stats() Stats {
	ipc.mu.Lock()
	defer ipc.mu.Unlock()
	return Stats{
		SegmentsCreated: ipc.segmentsCreated,
		QueuesCreated:   ipc.queuesCreated,
		MessagesSent:    int(ipc.messagesSent.Load()),
		BytesCopied:     ipc.bytesCopied.Load(),
	}
}

// Segment is a shared memory segment. The backing slice is handed out by
// Attach; all attachments alias the same memory, exactly like shmat.
type Segment struct {
	ipc  *IPC
	key  Key
	id   int
	data []byte

	mu       sync.Mutex
	nattach  int
	removed  bool // marked for destruction (IPC_RMID)
	detached bool // fully destroyed
}

// GetFlag selects creation behaviour for Shmget and Msgget, mirroring
// IPC_CREAT and IPC_EXCL.
type GetFlag int

const (
	// Open requires the object to exist already.
	Open GetFlag = iota
	// Create opens the object, creating it if absent (IPC_CREAT).
	Create
	// CreateExclusive creates the object, failing if present (IPC_CREAT|IPC_EXCL).
	CreateExclusive
)

// Shmget opens or creates the shared memory segment for key with the given
// size in bytes. Like the real call, an existing segment is returned as-is
// (its size is not changed); opening an existing segment with a larger
// size than it was created with is an error.
func (ipc *IPC) Shmget(key Key, size int, flag GetFlag) (*Segment, error) {
	ipc.mu.Lock()
	defer ipc.mu.Unlock()
	if seg, ok := ipc.segs[key]; ok {
		if flag == CreateExclusive {
			return nil, fmt.Errorf("shmget key %d: %w", key, ErrExists)
		}
		if size > len(seg.data) {
			return nil, fmt.Errorf("shmget key %d: requested %d > segment size %d: %w",
				key, size, len(seg.data), ErrTooBig)
		}
		return seg, nil
	}
	if flag == Open {
		return nil, fmt.Errorf("shmget key %d: %w", key, ErrNotFound)
	}
	if size <= 0 {
		return nil, fmt.Errorf("shmget key %d: size %d: %w", key, size, ErrBadSize)
	}
	if size > ipc.lim.MaxSegmentBytes {
		return nil, fmt.Errorf("shmget key %d: size %d > SHMMAX %d: %w",
			key, size, ipc.lim.MaxSegmentBytes, ErrTooBig)
	}
	ipc.nextID++
	seg := &Segment{ipc: ipc, key: key, id: ipc.nextID, data: make([]byte, size)}
	ipc.segs[key] = seg
	ipc.segmentsCreated++
	return seg, nil
}

// Key returns the key the segment was created under.
func (s *Segment) Key() Key { return s.key }

// Size returns the segment size in bytes.
func (s *Segment) Size() int { return len(s.data) }

// Attach maps the segment and returns the shared backing memory. Every
// attachment sees every other attachment's writes (it is the same slice).
// Attaching a removed segment fails with ErrRemoved.
func (s *Segment) Attach() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.detached || s.removed {
		return nil, fmt.Errorf("shmat key %d: %w", s.key, ErrRemoved)
	}
	s.nattach++
	return s.data, nil
}

// Detach unmaps one attachment. When the segment has been marked removed
// and the last attachment detaches, the memory is destroyed — the System V
// deferred-deletion behaviour.
func (s *Segment) Detach() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nattach == 0 {
		return fmt.Errorf("shmdt key %d: not attached", s.key)
	}
	s.nattach--
	if s.removed && s.nattach == 0 {
		s.destroyLocked()
	}
	return nil
}

// Remove marks the segment for destruction (IPC_RMID). The key becomes
// free immediately; the memory survives until the last Detach.
func (s *Segment) Remove() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.removed {
		return
	}
	s.removed = true
	s.ipc.mu.Lock()
	if s.ipc.segs[s.key] == s {
		delete(s.ipc.segs, s.key)
	}
	s.ipc.mu.Unlock()
	if s.nattach == 0 {
		s.destroyLocked()
	}
}

// Attached reports the current number of attachments (shm_nattch).
func (s *Segment) Attached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nattach
}

func (s *Segment) destroyLocked() {
	s.detached = true
	s.data = nil
}

// Msg is one queued message: a positive type plus an opaque payload, as in
// msgbuf. Payloads are copied on send (into the queue) and on receive (out
// of it), so queue traffic — unlike segment traffic — has a per-byte cost,
// which is why GX-Plug puts bulk graph data in segments and only flags in
// queues.
type Msg struct {
	Type    int64
	Payload []byte
}

// Queue is a System V message queue.
type Queue struct {
	ipc *IPC
	key Key

	mu      sync.Mutex
	notFull *sync.Cond
	arrived *sync.Cond
	msgs    []Msg
	bytes   int
	removed bool
	// free holds the queue-side payload copies of received messages, for
	// the next sends to fill.
	free [][]byte
}

// Msgget opens or creates the message queue for key.
func (ipc *IPC) Msgget(key Key, flag GetFlag) (*Queue, error) {
	ipc.mu.Lock()
	defer ipc.mu.Unlock()
	if q, ok := ipc.queues[key]; ok {
		if flag == CreateExclusive {
			return nil, fmt.Errorf("msgget key %d: %w", key, ErrExists)
		}
		return q, nil
	}
	if flag == Open {
		return nil, fmt.Errorf("msgget key %d: %w", key, ErrNotFound)
	}
	q := &Queue{ipc: ipc, key: key}
	q.notFull = sync.NewCond(&q.mu)
	q.arrived = sync.NewCond(&q.mu)
	ipc.queues[key] = q
	ipc.queuesCreated++
	return q, nil
}

// Key returns the queue's key.
func (q *Queue) Key() Key { return q.key }

// Len returns the number of queued messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.msgs)
}

// Msgsnd enqueues a message, blocking while the queue byte limit is
// exceeded. The message type must be positive. The payload is copied.
func (q *Queue) Msgsnd(mtype int64, payload []byte) error {
	if mtype <= 0 {
		return fmt.Errorf("msgsnd key %d: non-positive type %d", q.key, mtype)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.removed && q.bytes+len(payload) > q.ipc.lim.MaxQueueBytes && len(q.msgs) > 0 {
		q.notFull.Wait()
	}
	if q.removed {
		return fmt.Errorf("msgsnd key %d: %w", q.key, ErrRemoved)
	}
	var p []byte
	if n := len(q.free); n > 0 {
		p, q.free = q.free[n-1], q.free[:n-1]
	}
	p = append(p, payload...)
	q.msgs = append(q.msgs, Msg{Type: mtype, Payload: p})
	q.bytes += len(p)

	q.ipc.messagesSent.Add(1)
	q.ipc.bytesCopied.Add(int64(len(p)))

	q.arrived.Broadcast()
	return nil
}

// Msgrcv dequeues a message. mtype == 0 takes the first message in FIFO
// order; mtype > 0 takes the first message of exactly that type (System V
// semantics). If block is false and no matching message is queued, it
// returns ErrNoMsg; otherwise it waits. The payload is a fresh copy.
func (q *Queue) Msgrcv(mtype int64, block bool) (Msg, error) {
	return q.MsgrcvInto(nil, mtype, block)
}

// MsgrcvInto is Msgrcv receiving into the caller's buffer, as msgrcv(2)
// copies into msgp: the payload is appended to buf[:0], so a receiver that
// passes the previous message's payload back receives without allocating.
func (q *Queue) MsgrcvInto(buf []byte, mtype int64, block bool) (Msg, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.removed {
			return Msg{}, fmt.Errorf("msgrcv key %d: %w", q.key, ErrRemoved)
		}
		if i := q.matchLocked(mtype); i >= 0 {
			m := q.msgs[i]
			q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
			q.bytes -= len(m.Payload)
			q.notFull.Broadcast()

			q.ipc.bytesCopied.Add(int64(len(m.Payload)))
			if cap(m.Payload) > 0 {
				q.free = append(q.free, m.Payload[:0])
			}
			m.Payload = append(buf[:0], m.Payload...)
			return m, nil
		}
		if !block {
			return Msg{}, fmt.Errorf("msgrcv key %d type %d: %w", q.key, mtype, ErrNoMsg)
		}
		q.arrived.Wait()
	}
}

func (q *Queue) matchLocked(mtype int64) int {
	if mtype == 0 {
		if len(q.msgs) == 0 {
			return -1
		}
		return 0
	}
	for i, m := range q.msgs {
		if m.Type == mtype {
			return i
		}
	}
	return -1
}

// Remove destroys the queue (IPC_RMID): pending and future senders and
// receivers fail with ErrRemoved.
func (q *Queue) Remove() {
	q.mu.Lock()
	q.removed = true
	q.msgs, q.free = nil, nil
	q.bytes = 0
	q.arrived.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()

	q.ipc.mu.Lock()
	if q.ipc.queues[q.key] == q {
		delete(q.ipc.queues, q.key)
	}
	q.ipc.mu.Unlock()
}
