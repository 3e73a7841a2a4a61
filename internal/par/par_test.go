package par

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs body at GOMAXPROCS procs.
func withProcs(t *testing.T, procs int, body func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	body()
}

// within fails the test, rather than hanging it, when body does not
// return: the goroutine a deadlocked body leaves behind is the failure.
func within(t *testing.T, d time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
}

// Every index runs exactly once whatever fails, and the error is the one
// of the lowest failing index — what a serial loop returns.
func TestDoEveryIndexOnceAndSerialError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs, func() {
			for trial := 0; trial < 200; trial++ {
				n := rng.Intn(70)
				fails := make([]bool, n)
				want := -1
				for i := range fails {
					if fails[i] = rng.Intn(10) == 0; fails[i] && want < 0 {
						want = i
					}
				}
				ran := make([]atomic.Int32, n)
				err := Do(n, func(i int) error {
					ran[i].Add(1)
					if fails[i] {
						return fmt.Errorf("item %d", i)
					}
					return nil
				})
				for i := range ran {
					if c := ran[i].Load(); c != 1 {
						t.Fatalf("procs %d, n %d: item %d ran %d times", procs, n, i, c)
					}
				}
				switch {
				case want < 0 && err != nil:
					t.Fatalf("procs %d, n %d: error %v from a Do nothing failed in", procs, n, err)
				case want >= 0 && (err == nil || err.Error() != fmt.Sprintf("item %d", want)):
					t.Fatalf("procs %d, n %d: error %v, want item %d's", procs, n, err, want)
				}
			}
		})
	}
}

func TestDoPanicBecomesError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			err := Do(6, func(i int) error {
				if i >= 3 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return nil
			})
			var p *PanicError
			if !errors.As(err, &p) || p.Index != 3 || p.Value != "boom 3" {
				t.Fatalf("procs %d: error %v, want item 3's panic", procs, err)
			}
			// The stack is the panicking goroutine's, raised under call.
			for _, want := range []string{"boom 3", "goroutine ", "par.(*job).call"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("procs %d: error lacks %q:\n%v", procs, want, err)
				}
			}
		})
	}
}

// node → agent → daemon → launch: a Do inside a Do inside a Do finishes
// with every leaf run, however few helpers there are to go round.
func TestDoNestedTerminates(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs, func() {
			var leaves atomic.Int64
			within(t, 30*time.Second, func() {
				for rep := 0; rep < 20; rep++ {
					_ = Do(5, func(int) error {
						return Do(4, func(int) error {
							return Do(3, func(int) error {
								leaves.Add(1)
								return nil
							})
						})
					})
				}
			})
			if got := leaves.Load(); got != 20*5*4*3 {
				t.Fatalf("procs %d: %d leaves ran, want %d", procs, got, 20*5*4*3)
			}
		})
	}
}

// Back-to-back Dos (gen → route → merge-apply) must each engage the
// helper, including the one that has just released the previous Do and
// has not parked yet. Item 0 returns only once item 1 has started, so a
// Do that ran serially on its caller never returns.
func TestDoBackToBackEngagesHelper(t *testing.T) {
	withProcs(t, 2, func() {
		within(t, 30*time.Second, func() {
			for rep := 0; rep < 2000; rep++ {
				started := make(chan struct{})
				_ = Do(2, func(i int) error {
					if i == 1 {
						close(started)
					} else {
						<-started
					}
					return nil
				})
			}
		})
	})
}

// testing.AllocsPerRun measures at GOMAXPROCS 1, where a Do is the
// caller's loop; the helper path — job, reservation, hand-off — is
// measured the same way (whole allocations per run) without that.
func TestDoSteadyAllocatesNothing(t *testing.T) {
	var sum atomic.Int64
	fn := func(i int) error {
		sum.Add(int64(i))
		return nil
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Do(16, fn) }); allocs != 0 {
		t.Errorf("a steady serial Do allocates %.0f objects", allocs)
	}
	withProcs(t, 4, func() {
		const runs = 200
		_ = Do(16, fn) // spawns the helpers and makes the first job
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_ = Do(16, fn)
		}
		runtime.ReadMemStats(&after)
		if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
			t.Errorf("a steady Do on helpers allocates %d objects", allocs)
		}
	})
}
