// Package simtime provides deterministic virtual-time accounting for the
// GX-Plug simulation substrate.
//
// The reproduction executes all graph computation for real, but charges
// time from calibrated cost models instead of wall clocks, so that every
// figure of the paper is exactly repeatable and independent of the host
// machine. A Clock belongs to one simulated component (a distributed node,
// a device, a pipeline stage); durations are ordinary time.Duration values.
package simtime

import (
	"fmt"
	"math/bits"
	"time"
)

// Clock is a monotonically non-decreasing virtual clock.
// The zero value is a clock at time zero, ready to use.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative d panics: virtual time,
// like real time, never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %v", d))
	}
	c.now += d
}

// Reset rewinds the clock to zero. Only simulation harnesses reset clocks,
// and only between independent runs.
func (c *Clock) Reset() { c.now = 0 }

// Log2Ceil returns ceil(log2(n)) — the tree depth of n participants in a
// collective. One (or zero) participants need no coordination at all, so
// the result is 0 for n ≤ 1 — single-node collectives are free: a
// broadcast has no receivers, an exchange and an all-gather move no
// remote bytes, and a barrier synchronizes nobody, instead of charging
// phantom latency and barrier overhead.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// TimeFor returns the virtual time to perform `work` units at `rate` units
// per second. Zero or negative rate panics — a component with no
// throughput cannot make progress and indicates a miscalibrated model.
func TimeFor(work, rate float64) time.Duration {
	if rate <= 0 {
		panic(fmt.Sprintf("simtime: non-positive rate %v", rate))
	}
	if work <= 0 {
		return 0
	}
	sec := work / rate
	return time.Duration(sec * float64(time.Second))
}

// StageCosts holds the per-stage virtual cost of processing one block in a
// multi-stage pipeline. GX-Plug's pipeline shuffle has exactly three
// stages (download, compute, upload), but the makespan recurrence is
// general.
type StageCosts []time.Duration

// PipelineMakespan computes the completion time of a blocking wavefront
// pipeline: block k cannot start stage s before (a) block k has finished
// stage s-1 and (b) block k-1 has finished stage s. This is the exact
// semantics of the paper's pipeline shuffle (one thread per stage, blocks
// flowing in order), and generalizes Equation 1 of the paper to
// heterogeneous per-block costs.
//
// costs[k][s] is the cost of block k at stage s. All blocks must have the
// same number of stages. An empty input has zero makespan.
func PipelineMakespan(costs []StageCosts) time.Duration {
	if len(costs) == 0 {
		return 0
	}
	stages := len(costs[0])
	if stages == 0 {
		return 0
	}
	// finish[s] holds the finish time of the most recently scheduled block
	// at stage s.
	finish := make([]time.Duration, stages)
	for k, bc := range costs {
		if len(bc) != stages {
			panic(fmt.Sprintf("simtime: block %d has %d stages, want %d", k, len(bc), stages))
		}
		var prev time.Duration // finish of this block at the previous stage
		for s := 0; s < stages; s++ {
			start := prev
			if finish[s] > start {
				start = finish[s]
			}
			finish[s] = start + bc[s]
			prev = finish[s]
		}
	}
	return finish[stages-1]
}

// SequentialMakespan is the non-pipelined counterpart: every block passes
// through every stage strictly one after another (the paper's
// "WithoutPipeline" configuration).
func SequentialMakespan(costs []StageCosts) time.Duration {
	var total time.Duration
	for _, bc := range costs {
		for _, c := range bc {
			total += c
		}
	}
	return total
}
