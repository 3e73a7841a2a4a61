package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// parallelNodes runs fn(j) for every node j in [0, n) across a bounded
// worker pool (at most GOMAXPROCS goroutines). Node work must touch only
// node-disjoint state; per-node costs land on per-node virtual clocks, so
// the schedule cannot influence simulated time. Errors are collected per
// node and the lowest-index error is returned, keeping failure reporting
// deterministic regardless of scheduling. With a single worker the loop
// degenerates to plain sequential execution.
//
// A panic in fn — an algorithm's MSGGen or MSGApply is user code — is
// recovered where it happens and becomes that node's error, under the
// same lowest-index rule: on a worker goroutine nothing above could
// recover it, and it would take the process and every other run in it
// down.
func parallelNodes(n int, fn func(j int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for j := 0; j < n; j++ {
			if err := runNode(fn, j); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1))
				if j >= n {
					return
				}
				errs[j] = runNode(fn, j)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runNode is fn(j) with a panic turned into an error carrying the
// panic value and the stack it was raised on.
func runNode(fn func(j int) error, j int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("engine: node %d panicked: %v\n%s", j, v, debug.Stack())
		}
	}()
	return fn(j)
}
