package gxplug

import (
	"errors"
	"fmt"
	"time"
)

// Deterministic fault injection (scheduled by the engine's scenario
// plan) and the checkpoint-boundary synchronization that makes resumed
// runs bit-identical to uninterrupted ones.
//
// Faults are armed on an agent between supersteps — the engine loop is
// serialized there — and fire inside the agent's own request path, so
// every failure surfaces as a typed error on the requesting node:
// never a hang, never a panic, never a half-written result.

// Fault kind strings, shared with the engine's scenario schema.
const (
	// FaultDaemonCrash tears down one daemon's request queue, killing
	// its goroutine the way IPC_RMID kills a real daemon mid-Msgrcv.
	// Fatal: every subsequent daemon request on the agent fails.
	FaultDaemonCrash = "daemon-crash"
	// FaultMsgStall delays daemon control messages: each armed stall
	// costs one timeout+backoff on the virtual clock. Recoverable while
	// the armed count stays within maxStallRetries.
	FaultMsgStall = "msg-stall"
	// FaultAccelOOM forces a device allocation beyond capacity at the
	// next RequestGen, surfacing device.ErrOutOfMemory. Fatal.
	FaultAccelOOM = "accel-oom"
)

// Stall retry schedule: attempt i (1-based) charges
// stallTimeout + (i-1)*stallBackoff to the node's middleware bucket.
// The schedule is fixed so simulated time stays deterministic.
const (
	stallTimeout    = 2 * time.Millisecond
	stallBackoff    = time.Millisecond
	maxStallRetries = 8
)

var errDaemonCrashed = errors.New("request queue removed")

// InjectedFaultError is the typed surface of every injected fault: the
// engine unwraps it to classify the failure by kind and node.
type InjectedFaultError struct {
	Kind string
	Node int
	Err  error
}

func (e *InjectedFaultError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("gxplug: injected %s on node %d: %v", e.Kind, e.Node, e.Err)
	}
	return fmt.Sprintf("gxplug: injected %s on node %d", e.Kind, e.Node)
}

func (e *InjectedFaultError) Unwrap() error { return e.Err }

// CrashDaemon kills daemon di (clamped into range) by removing its
// request queue: the daemon goroutine's blocked Msgrcv fails with
// ErrRemoved and the goroutine exits, exactly as if the process died.
// The agent's IPC handles stay valid — Disconnect still tears down
// cleanly — but every subsequent request on the agent surfaces as an
// InjectedFaultError of kind FaultDaemonCrash.
//
//gxlint:uncharged the crash models instant death; its cost surfaces as the failed requests that follow, which charge on their own paths
func (a *Agent) CrashDaemon(di int) {
	if !a.connected || len(a.daemons) == 0 {
		return
	}
	if di < 0 || di >= len(a.daemons) {
		di = 0
	}
	p := a.daemons[di]
	if p.crashed {
		return
	}
	p.crashed = true
	p.reqQ.Remove()
	p.done.Wait()
}

// InjectStall arms count message stalls (at least one): the next daemon
// requests each consume one stall, charging the deterministic
// timeout+backoff schedule to the node's virtual clock. Arming more
// than maxStallRetries makes the request give up and fail.
//
//gxlint:uncharged arming is free: requestDaemon charges the stall schedule when the fault fires
func (a *Agent) InjectStall(count int) {
	if count < 1 {
		count = 1
	}
	a.stallPending += count
}

// InjectOOM arms a device out-of-memory fault: the next RequestGen
// attempts an allocation beyond the device's capacity and surfaces the
// resulting device.ErrOutOfMemory as an InjectedFaultError.
//
//gxlint:uncharged arming is free: fireOOM consumes the fault inside the next RequestGen, which fails with the injected error
func (a *Agent) InjectOOM() { a.oomPending = true }

// requestDaemon is the agent-side request path with fault semantics:
// crashed daemons fail fast, armed stalls charge their bounded
// retry/backoff schedule before the request proceeds.
func (a *Agent) requestDaemon(p *daemonProc, mtype int64, payload []byte) (int64, []byte, error) {
	if p.crashed {
		return 0, nil, &InjectedFaultError{
			Kind: FaultDaemonCrash, Node: a.node.ID,
			Err: fmt.Errorf("daemon %d: %w", p.cfg.index, errDaemonCrashed),
		}
	}
	for attempt := 1; a.stallPending > 0; attempt++ {
		a.stallPending--
		a.stats.StallRetries++
		a.charge(stallTimeout + time.Duration(attempt-1)*stallBackoff)
		if attempt >= maxStallRetries {
			a.stallPending = 0
			return 0, nil, &InjectedFaultError{
				Kind: FaultMsgStall, Node: a.node.ID,
				Err: fmt.Errorf("daemon %d: gave up after %d stalled attempts", p.cfg.index, attempt),
			}
		}
	}
	return p.request(mtype, payload)
}

// fireOOM consumes an armed OOM fault by over-allocating on the first
// device, returning the typed fault error.
func (a *Agent) fireOOM() error {
	a.oomPending = false
	dev := a.daemons[0].cfg.dev
	if err := dev.Alloc(dev.Spec().MemBytes + 1); err != nil {
		return &InjectedFaultError{Kind: FaultAccelOOM, Node: a.node.ID, Err: err}
	}
	return fmt.Errorf("gxplug: injected accel-oom on node %d did not trip the allocator", a.node.ID)
}

// CheckpointSync brings the agent to the canonical checkpoint-boundary
// state: every dirty row is flushed to the upper system (charged to the
// node's clock), device-resident topology is forgotten, and a store whose
// contents depend on history a resumed run cannot replay — this
// iteration's fetch marks without the cache, the eviction order of a
// cache that cannot hold the whole table — is emptied. (A cache that
// holds the whole table holds all of it, clean, after the flush, exactly
// as after a fresh Connect.) A freshly connected agent normalized by the
// same call is indistinguishable from this one in every cost-relevant
// way, which is what makes a resumed run's virtual time bit-identical to
// the uninterrupted run's.
func (a *Agent) CheckpointSync() {
	if !a.connected {
		//gxlint:uncharged a disconnected agent has no dirty state to synchronize
		return
	}
	a.charge(a.Flush())
	if !a.opts.Caching || a.store.Bounded() {
		a.store.Clear()
	}
	a.DropResidency()
}

// DropResidency forgets the previous iteration's block plan, so the
// next RequestGen re-ships topology instead of assuming the daemons
// still hold it.
func (a *Agent) DropResidency() {
	a.prevRows = a.prevRows[:0]
	a.prevBlockEdges = 0
}
