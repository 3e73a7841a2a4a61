package engine

import (
	"fmt"

	"gxplug/internal/gxplug"
)

// Fault injection as a first-class run dimension: a Config carries a
// deterministic fault plan, the loop arms each fault on its node's
// agent at the top of the scheduled superstep, and anything the
// middleware cannot absorb surfaces from Run as a typed FaultError —
// never a hang, never corrupted state.

// Fault kinds, re-exported from the middleware so scenario schemas and
// engine configs share one vocabulary.
const (
	// FaultDaemonCrash kills one accelerator daemon on the node; every
	// later request to it fails. Fatal.
	FaultDaemonCrash = gxplug.FaultDaemonCrash
	// FaultMsgStall stalls daemon control messages; the agent absorbs
	// them with a bounded, deterministically-charged retry/backoff
	// schedule. Recoverable unless the armed count exhausts the budget.
	FaultMsgStall = gxplug.FaultMsgStall
	// FaultAccelOOM forces a device allocation beyond capacity at the
	// node's next Gen request. Fatal.
	FaultAccelOOM = gxplug.FaultAccelOOM
)

// Fault schedules one injected fault: Kind is armed on node Node's
// agent at the top of superstep Superstep (zero-based). Param refines
// the kind — the daemon index for daemon-crash, the stall count for
// msg-stall; unused for accel-oom.
type Fault struct {
	Kind      string
	Node      int
	Superstep int
	Param     int64
}

func validFaultKind(k string) bool {
	switch k {
	case FaultDaemonCrash, FaultMsgStall, FaultAccelOOM:
		return true
	}
	return false
}

// FaultError is how an injected fault the middleware could not absorb
// surfaces from Run: typed with kind, node, and superstep so harnesses
// classify failures without string matching.
type FaultError struct {
	Kind      string
	Node      int
	Superstep int
	Err       error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("engine: %s fault on node %d at superstep %d: %v",
		e.Kind, e.Node, e.Superstep, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// armFault arms one scheduled fault on its node's agent. Validation in
// resolve guarantees the node is plugged and the kind known.
func (r *runner) armFault(f Fault) {
	a := r.agents[f.Node]
	switch f.Kind {
	case FaultDaemonCrash:
		a.CrashDaemon(int(f.Param))
	case FaultMsgStall:
		a.InjectStall(int(f.Param))
	case FaultAccelOOM:
		a.InjectOOM()
	}
}
