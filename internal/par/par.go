// Package par is the one host fan-out: node phases, device launches and,
// through those, gen chunks all run on it. How many goroutines, who claims
// what, whose error wins and what a panic becomes are decided here once.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic raised by Do's fn(Index), recovered where it ran.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: item %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// The process-wide pool of parked helpers, under mu. idle counts those no
// Do has reserved: each is receiving on work, or about to. free holds the
// finished jobs: a steady Do allocates nothing.
var (
	mu            sync.Mutex
	idle, spawned int
	free          []*job
	work          = make(chan *job)
)

// job is one Do in flight; err and errIdx are under mu.
type job struct {
	fn      func(i int) error
	n       int
	next    atomic.Int64
	helpers sync.WaitGroup
	err     error
	errIdx  int
}

// Do runs fn(i) exactly once for every i in [0, n) — on the caller and on
// up to min(n, GOMAXPROCS)-1 idle helpers, concurrently — and returns the
// error of the lowest failing index, the one a serial loop meets first. A
// panic in fn is that index's error, a *PanicError: Do(1, fn) is how code
// that fans nothing out calls fn under the one recover.
//
// The caller claims indices itself and waits only for helpers it handed
// the job to, so a Do inside fn cannot deadlock and all Dos together run
// on their callers plus GOMAXPROCS-1 helpers. At GOMAXPROCS 1 a Do is a
// loop on the caller.
func Do(n int, fn func(i int) error) error {
	procs := runtime.GOMAXPROCS(0)
	want := max(0, min(n, procs)-1)
	mu.Lock()
	if len(free) == 0 {
		free = append(free, new(job))
	}
	j := free[len(free)-1]
	free = free[:len(free)-1]
	for ; idle < want && spawned < procs-1; spawned++ {
		idle++
		go help()
	}
	want = min(want, idle)
	idle -= want
	mu.Unlock()
	j.fn, j.n = fn, n
	j.next.Store(0)
	j.helpers.Add(want)
	for ; want > 0; want-- {
		// Blocking: a reserved helper is parked or on its way back, and a
		// non-blocking send misses the latter — back-to-back Dos run serially.
		work <- j
	}
	j.claim()
	j.helpers.Wait()
	mu.Lock()
	err := j.err
	j.fn, j.err = nil, nil
	free = append(free, j)
	mu.Unlock()
	return err
}

// help is a pool helper: idle before it releases the job it helped, so
// that the Do that follows finds it.
func help() {
	for j := range work {
		j.claim()
		mu.Lock()
		idle++
		mu.Unlock()
		j.helpers.Done()
	}
}

// claim runs unclaimed indices until none is left, each under a recover.
func (j *job) claim() {
	for i := int(j.next.Add(1)) - 1; i < j.n; i = int(j.next.Add(1)) - 1 {
		if err := j.call(i); err != nil {
			mu.Lock()
			if j.err == nil || i < j.errIdx {
				j.err, j.errIdx = err, i
			}
			mu.Unlock()
		}
	}
}

func (j *job) call(i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return j.fn(i)
}
