package engine

import (
	"fmt"
	"time"
)

// Checkpoint/restore on the superstep boundary. A checkpoint is a
// consistent cut: every agent is first brought to the canonical
// boundary state (dirty rows flushed, device residency dropped — see
// gxplug.CheckpointSync), the simulated storage write is charged and
// barriered, and only then is the state captured. Resume rebuilds a
// fresh runner, replays the in-memory reconstruction (agent priming,
// the GAS scatter carry), normalizes the agents with the same
// CheckpointSync, and restores the captured clocks — wiping the
// reconstruction costs — so the continued run is bit-identical, in
// final attributes and virtual makespan, to one that never stopped.

// NodeClock is one node's captured time accounting.
type NodeClock struct {
	Clock      time.Duration
	Upper      time.Duration
	Middleware time.Duration
}

// CheckpointState is everything a run needs to continue from a
// superstep boundary. It is pure data — safe to serialize (the gx
// layer stores it in snapshot-v2 sections) and independent of any
// runner internals.
type CheckpointState struct {
	// Iteration is the number of completed supersteps.
	Iteration int
	// Skipped is the cumulative skipped-synchronization count.
	Skipped int
	// Barriers is the cluster's cumulative barrier count.
	Barriers int
	// HasCarry records that a GAS scatter carry was live at the cut;
	// Resume rebuilds it by replaying the scatter against the
	// checkpointed attributes.
	HasCarry bool
	// Done records that the run had already converged at this cut;
	// Resume returns immediately.
	Done bool
	// AttrWidth and Attrs are the authoritative vertex state.
	AttrWidth int
	Attrs     []float64
	// Active is the frontier entering the next superstep.
	Active []bool
	// Nodes holds each node's virtual-time accounting.
	Nodes []NodeClock
}

// checkpoint takes a consistent cut after superstep iter-1 completed
// (iter supersteps done): agents flush to the canonical boundary
// state, the storage write is charged and barriered, and the captured
// state goes to the sink. The cut cost is part of the run's virtual
// time — live and resumed runs both pay it identically.
func (r *runner) checkpoint(iter int, carry *gasCarry, changedAny bool) error {
	before := r.cl.MaxTime()
	for _, a := range r.agents {
		a.CheckpointSync()
	}
	for j, nd := range r.cl.Nodes() {
		nd.Charge(bucketUpper, checkpointCost(len(r.part.Parts[j].Masters), r.aw))
	}
	r.cl.Barrier(bucketUpper)
	r.obsCkpt += r.cl.MaxTime() - before

	st := &CheckpointState{
		Iteration: iter,
		Skipped:   r.skipped,
		Barriers:  r.cl.Barriers(),
		HasCarry:  carry != nil,
		Done:      !changedAny,
		AttrWidth: r.aw,
		Attrs:     append([]float64(nil), r.attrs...),
		Active:    append([]bool(nil), r.active...),
		Nodes:     make([]NodeClock, r.cfg.Nodes),
	}
	for j, nd := range r.cl.Nodes() {
		st.Nodes[j] = NodeClock{
			Clock:      nd.Clock.Now(),
			Upper:      nd.Bucket(bucketUpper),
			Middleware: nd.Bucket(bucketMiddleware),
		}
	}
	return r.cfg.CheckpointSink(st)
}

// Resume continues a run from a checkpoint taken by an identical
// Config. The fault plan is validated like Run's but not re-armed — the
// crash the checkpoint recovered from belongs to the previous
// incarnation — and the result is bit-identical (final attributes,
// virtual makespan, per-bucket times) to the uninterrupted run's. A nil
// or mis-shaped checkpoint is a *ConfigError, like a rejected Config.
func Resume(cfg Config, st *CheckpointState) (*Result, error) {
	p, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	// A checkpoint this config cannot continue from is rejected like any
	// other config problem: before anything is set up.
	n := cfg.Graph.NumVertices()
	var bad error
	switch {
	case cfg.Stream != nil:
		// No stream run can have produced a checkpoint (resolve rejects
		// stream × checkpointing), so there is nothing to resume into.
		bad = fmt.Errorf("engine: a batch stream cannot resume from a checkpoint")
	case st == nil:
		bad = fmt.Errorf("engine: resume from nil checkpoint")
	case st.Iteration < 1:
		bad = fmt.Errorf("engine: checkpoint at %d completed supersteps (want ≥ 1)", st.Iteration)
	case st.AttrWidth != p.aw:
		bad = fmt.Errorf("engine: checkpoint attr width %d, algorithm wants %d", st.AttrWidth, p.aw)
	case len(st.Attrs) != n*p.aw:
		bad = fmt.Errorf("engine: checkpoint has %d attrs, graph wants %d", len(st.Attrs), n*p.aw)
	case len(st.Active) != n:
		bad = fmt.Errorf("engine: checkpoint has %d active flags, graph wants %d", len(st.Active), n)
	case len(st.Nodes) != cfg.Nodes:
		bad = fmt.Errorf("engine: checkpoint has %d node clocks, config %d nodes", len(st.Nodes), cfg.Nodes)
	}
	if bad != nil {
		return nil, &ConfigError{Err: bad}
	}
	return newRunner(p).resume(st)
}

// resume is run for a runner that starts from the boundary st was cut at.
func (r *runner) resume(st *CheckpointState) (*Result, error) {
	r.faultsAt = nil
	// Preload the captured state before setup so agent priming ships
	// checkpointed — not initial — attribute values.
	r.pre = st
	defer r.disconnect()
	if err := r.setup(); err != nil {
		return nil, err
	}

	// Rebuild the GAS scatter carry by replaying the scatter of the
	// last completed superstep against the checkpointed state. The
	// replay's charges (and the agents' post-replay drift) are wiped by
	// the normalization and clock restore below.
	var carry *gasCarry
	if st.HasCarry && r.cfg.Spec.Model == GAS {
		r.ctx.Iteration = st.Iteration - 1
		results, inbox, err := r.scatter(r.resetVol())
		if err != nil {
			return nil, err
		}
		carry = &gasCarry{results: results, inbox: inbox}
	}
	for _, a := range r.agents {
		a.CheckpointSync()
	}
	for j, nd := range r.cl.Nodes() {
		nc := st.Nodes[j]
		nd.Restore(nc.Clock, map[string]time.Duration{
			bucketUpper:      nc.Upper,
			bucketMiddleware: nc.Middleware,
		})
	}
	r.cl.RestoreBarriers(st.Barriers)
	r.skipped = st.Skipped

	iterations := st.Iteration
	if !st.Done {
		var err error
		if iterations, err = r.loopFrom(st.Iteration, carry); err != nil {
			return nil, err
		}
	}
	return r.finish(iterations), nil
}
