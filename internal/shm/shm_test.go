package shm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newIPC() *IPC { return NewIPC(DefaultLimits()) }

func TestShmgetCreateAndOpen(t *testing.T) {
	ipc := newIPC()
	seg, err := ipc.Shmget(42, 128, Create)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if mem, err := seg.Attach(); err != nil || len(mem) != 128 {
		t.Fatalf("attach: %d bytes, %v; want 128", len(mem), err)
	}
	again, err := ipc.Shmget(42, 128, Open)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if again != seg {
		t.Fatal("open returned a different segment for same key")
	}
}

func TestShmgetOpenMissing(t *testing.T) {
	ipc := newIPC()
	if _, err := ipc.Shmget(7, 8, Open); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open missing: err = %v, want ErrNotFound", err)
	}
}

func TestShmgetExclusiveExisting(t *testing.T) {
	ipc := newIPC()
	if _, err := ipc.Shmget(7, 8, Create); err != nil {
		t.Fatal(err)
	}
	if _, err := ipc.Shmget(7, 8, CreateExclusive); !errors.Is(err, ErrExists) {
		t.Fatalf("exclusive on existing: err = %v, want ErrExists", err)
	}
}

func TestShmgetBadSizes(t *testing.T) {
	ipc := newIPC()
	if _, err := ipc.Shmget(1, 0, Create); !errors.Is(err, ErrBadSize) {
		t.Fatalf("zero size: err = %v, want ErrBadSize", err)
	}
	if _, err := ipc.Shmget(2, DefaultLimits().MaxSegmentBytes+1, Create); !errors.Is(err, ErrTooBig) {
		t.Fatalf("over SHMMAX: err = %v, want ErrTooBig", err)
	}
	if _, err := ipc.Shmget(3, 16, Create); err != nil {
		t.Fatal(err)
	}
	if _, err := ipc.Shmget(3, 32, Open); !errors.Is(err, ErrTooBig) {
		t.Fatalf("open larger than created: err = %v, want ErrTooBig", err)
	}
}

// The core property of the design: all attachments alias the same memory,
// so an agent's write is immediately visible to its daemon with no copy.
func TestAttachSharesMemory(t *testing.T) {
	ipc := newIPC()
	seg, _ := ipc.Shmget(1, 8, Create)
	a, err := seg.Attach()
	if err != nil {
		t.Fatal(err)
	}
	b, err := seg.Attach()
	if err != nil {
		t.Fatal(err)
	}
	a[3] = 0xAB
	if b[3] != 0xAB {
		t.Fatal("attachments do not share memory")
	}
	if seg.Attached() != 2 {
		t.Fatalf("Attached() = %d, want 2", seg.Attached())
	}
}

func TestDetachUnattached(t *testing.T) {
	ipc := newIPC()
	seg, _ := ipc.Shmget(1, 8, Create)
	if err := seg.Detach(); err == nil {
		t.Fatal("detach with no attachments succeeded")
	}
}

// System V deferred deletion: Remove frees the key at once but the memory
// lives until the last detach.
func TestRemoveDeferredDeletion(t *testing.T) {
	ipc := newIPC()
	seg, _ := ipc.Shmget(9, 8, Create)
	mem, _ := seg.Attach()
	seg.Remove()

	// Key free: creating a new segment under the same key succeeds.
	if _, err := ipc.Shmget(9, 8, CreateExclusive); err != nil {
		t.Fatalf("key not freed after Remove: %v", err)
	}
	// Old memory still usable by existing attachment.
	mem[0] = 1
	// New attachments rejected.
	if _, err := seg.Attach(); !errors.Is(err, ErrRemoved) {
		t.Fatalf("attach after remove: err = %v, want ErrRemoved", err)
	}
	if err := seg.Detach(); err != nil {
		t.Fatalf("final detach: %v", err)
	}
}

func TestRemoveIdempotent(t *testing.T) {
	ipc := newIPC()
	seg, _ := ipc.Shmget(9, 8, Create)
	seg.Remove()
	seg.Remove() // must not panic or corrupt state
}

func TestMsgQueueFIFO(t *testing.T) {
	ipc := newIPC()
	q, err := ipc.Msgget(5, Create)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 5; i++ {
		if err := q.Msgsnd(1, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 5; i++ {
		m, err := q.Msgrcv(0, true)
		if err != nil {
			t.Fatal(err)
		}
		if m.Payload[0] != i {
			t.Fatalf("out of order: got %d want %d", m.Payload[0], i)
		}
	}
}

func TestMsgrcvByType(t *testing.T) {
	ipc := newIPC()
	q, _ := ipc.Msgget(5, Create)
	q.Msgsnd(2, []byte("two"))
	q.Msgsnd(1, []byte("one"))
	m, err := q.Msgrcv(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Payload) != "one" || m.Type != 1 {
		t.Fatalf("typed receive got %q type %d", m.Payload, m.Type)
	}
	// The type-2 message must still be there.
	m, err = q.Msgrcv(0, true)
	if err != nil || string(m.Payload) != "two" {
		t.Fatalf("remaining message wrong: %q %v", m.Payload, err)
	}
}

func TestMsgrcvNonBlocking(t *testing.T) {
	ipc := newIPC()
	q, _ := ipc.Msgget(5, Create)
	if _, err := q.Msgrcv(0, false); !errors.Is(err, ErrNoMsg) {
		t.Fatalf("empty non-blocking receive: err = %v, want ErrNoMsg", err)
	}
	q.Msgsnd(3, []byte("x"))
	if _, err := q.Msgrcv(7, false); !errors.Is(err, ErrNoMsg) {
		t.Fatalf("type-mismatch non-blocking receive: err = %v, want ErrNoMsg", err)
	}
}

func TestMsgsndRejectsBadType(t *testing.T) {
	ipc := newIPC()
	q, _ := ipc.Msgget(5, Create)
	if err := q.Msgsnd(0, nil); err == nil {
		t.Fatal("type 0 accepted")
	}
	if err := q.Msgsnd(-1, nil); err == nil {
		t.Fatal("negative type accepted")
	}
}

func TestMsgPayloadCopied(t *testing.T) {
	ipc := newIPC()
	q, _ := ipc.Msgget(5, Create)
	buf := []byte{1, 2, 3}
	q.Msgsnd(1, buf)
	buf[0] = 99 // mutate after send; queued copy must be unaffected
	m, _ := q.Msgrcv(0, true)
	if m.Payload[0] != 1 {
		t.Fatal("payload aliased sender buffer")
	}
}

// The queue reuses its own copy of a received payload for later sends;
// what a receiver holds must not change under it — neither a Msgrcv
// payload nor a buffer it passed to MsgrcvInto.
func TestMsgReceivedPayloadNotAliased(t *testing.T) {
	ipc := newIPC()
	q, _ := ipc.Msgget(5, Create)
	q.Msgsnd(1, []byte{1, 2, 3})
	first, _ := q.Msgrcv(0, true)
	q.Msgsnd(1, []byte{7, 8, 9})
	buf := make([]byte, 0, 16)
	second, err := q.MsgrcvInto(buf, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	q.Msgsnd(1, []byte{4, 5, 6})
	if string(first.Payload) != "\x01\x02\x03" {
		t.Fatalf("first payload became %v after later traffic", first.Payload)
	}
	if string(second.Payload) != "\x07\x08\x09" || &second.Payload[0] != &buf[:1][0] {
		t.Fatalf("MsgrcvInto payload %v, in the caller's buffer: %v", second.Payload, &second.Payload[0] == &buf[:1][0])
	}
}

// A send/receive round trip that hands the previous payload back as the
// receive buffer allocates nothing once the queue holds a spare copy.
func TestMsgrcvIntoSteadyStateNoAlloc(t *testing.T) {
	ipc := newIPC()
	q, _ := ipc.Msgget(6, Create)
	payload := []byte("12345678")
	var buf []byte
	roundTrip := func() {
		if err := q.Msgsnd(1, payload); err != nil {
			t.Fatal(err)
		}
		m, err := q.MsgrcvInto(buf, 0, true)
		if err != nil || string(m.Payload) != "12345678" {
			t.Fatalf("round trip: %q, %v", m.Payload, err)
		}
		buf = m.Payload
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("steady-state round trip allocates %.1f times, want 0", allocs)
	}
}

func TestMsgBlockingReceiveWakesUp(t *testing.T) {
	ipc := newIPC()
	q, _ := ipc.Msgget(5, Create)
	done := make(chan Msg, 1)
	go func() {
		m, err := q.Msgrcv(0, true)
		if err != nil {
			t.Errorf("receive: %v", err)
		}
		done <- m
	}()
	time.Sleep(10 * time.Millisecond)
	if err := q.Msgsnd(1, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if string(m.Payload) != "wake" {
			t.Fatalf("got %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked receiver never woke up")
	}
}

func TestQueueRemoveUnblocksWaiters(t *testing.T) {
	ipc := newIPC()
	q, _ := ipc.Msgget(5, Create)
	errc := make(chan error, 1)
	go func() {
		_, err := q.Msgrcv(0, true)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Remove()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrRemoved) {
			t.Fatalf("err = %v, want ErrRemoved", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not unblocked by Remove")
	}
	if err := q.Msgsnd(1, nil); !errors.Is(err, ErrRemoved) {
		t.Fatalf("send after remove: err = %v, want ErrRemoved", err)
	}
}

func TestMsggetOpenMissing(t *testing.T) {
	ipc := newIPC()
	if _, err := ipc.Msgget(5, Open); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// Property: any interleaving of concurrent senders delivers every message
// exactly once, and per-sender order is preserved by FIFO receive.
func TestConcurrentSendersDeliverAll(t *testing.T) {
	ipc := newIPC()
	q, _ := ipc.Msgget(1, Create)
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.Msgsnd(int64(s+1), []byte{byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	lastSeen := make(map[int64]int)
	for n := 0; n < senders*per; n++ {
		m, err := q.Msgrcv(0, false)
		if err != nil {
			t.Fatalf("receive %d: %v", n, err)
		}
		if prev, ok := lastSeen[m.Type]; ok && int(m.Payload[0]) <= prev {
			t.Fatalf("per-sender order violated for sender %d: %d after %d",
				m.Type, m.Payload[0], prev)
		}
		lastSeen[m.Type] = int(m.Payload[0])
	}
	if m, err := q.Msgrcv(0, false); !errors.Is(err, ErrNoMsg) {
		t.Fatalf("queue not drained: received %+v, %v", m, err)
	}
}

// Property: a write through one attachment is readable through another for
// arbitrary offsets and values.
func TestSharedVisibilityQuick(t *testing.T) {
	ipc := newIPC()
	seg, _ := ipc.Shmget(77, 4096, Create)
	w, _ := seg.Attach()
	r, _ := seg.Attach()
	f := func(off uint16, val byte) bool {
		i := int(off) % 4096
		w[i] = val
		return r[i] == val
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
