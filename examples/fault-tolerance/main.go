// Fault tolerance: inject middleware faults into a run and recover a
// crashed one from an on-disk checkpoint.
//
// The example makes the two robustness guarantees concrete. First, a
// recoverable fault (a stalled daemon control message) is absorbed by
// the middleware's retry schedule: the run finishes with the same
// results, just later on the virtual clock. Second, a fatal fault (a
// crashed daemon) ends the run with a typed error — but a checkpointed
// run restarts from its last consistent cut and converges to the final
// attributes and virtual makespan of a run that never crashed, bit for
// bit.
//
//	go run ./examples/fault-tolerance
package main

import (
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"gxplug/gx"
)

func main() {
	base := gx.Scenario{
		Engine:    "powergraph",
		Algorithm: "pagerank",
		Dataset:   "orkut",
		Scale:     2000,
		Seed:      1,
		Nodes:     4,
		Accel:     "gpu",
		MaxIter:   8,
	}
	clean, err := gx.Run(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free run    : %v over %d iterations\n", clean.Time, clean.Iterations)

	// A msg-stall is recoverable: the agent retries with deterministic
	// backoff, charging the recovery to the virtual clock.
	stalled := base
	stalled.Faults = []gx.FaultSpec{{Kind: gx.FaultMsgStall, Node: 2, Superstep: 3, Param: 4}}
	absorbed, err := gx.Run(stalled)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stall absorbed    : %v (+%v recovery), results identical: %v\n",
		absorbed.Time, absorbed.Time-clean.Time, attrsEqual(clean.Attrs, absorbed.Attrs))

	// A daemon crash is fatal. Checkpoint every superstep so the crash
	// costs at most one superstep of progress.
	dir, err := os.MkdirTemp("", "gxplug-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "checkpoint.gxsnap")

	crashy := base
	crashy.Faults = []gx.FaultSpec{{Kind: gx.FaultDaemonCrash, Node: 1, Superstep: 4}}
	g, err := gx.LoadDataset(base.Dataset, base.Scale, base.Seed)
	if err != nil {
		log.Fatal(err)
	}
	save := gx.WithCheckpoint(1, func(st *gx.CheckpointState) error {
		return gx.SaveCheckpoint(ckpt, g, st)
	})
	_, err = gx.Run(crashy, gx.WithGraph(g), save)
	var fe *gx.FaultError
	if !errors.As(err, &fe) {
		log.Fatalf("expected a fault error, got %v", err)
	}
	fmt.Printf("crash injected    : %v (class %q)\n", err, gx.FailureClass(err))

	// Reload the cut and resume; the fault plan of the crashed
	// incarnation is not re-armed. The reference for comparison is an
	// uninterrupted run on the same checkpoint schedule (the simulated
	// checkpoint cost is part of the virtual clock).
	g2, st, err := gx.LoadCheckpoint(ckpt)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := gx.Resume(crashy, st, gx.WithGraph(g2), save)
	if err != nil {
		log.Fatal(err)
	}
	reference, err := gx.Run(base, gx.WithGraph(g),
		gx.WithCheckpoint(1, func(*gx.CheckpointState) error { return nil }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed from cut %d: %v over %d iterations\n", st.Iteration, resumed.Time, resumed.Iterations)
	same, sameTime := attrsEqual(resumed.Attrs, reference.Attrs), resumed.Time == reference.Time
	fmt.Printf("bit-identical     : attrs %v, makespan %v\n", same, sameTime)
	if !same || !sameTime {
		log.Fatal("the resumed run diverges from the uninterrupted one")
	}
}

func attrsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
