package device

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSpecValidate(t *testing.T) {
	good := V100()
	if err := good.Validate(); err != nil {
		t.Fatalf("V100 invalid: %v", err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Threads = 0 },
		func(s *Spec) { s.OpsPerThread = 0 },
		func(s *Spec) { s.CopyBandwidth = -1 },
		func(s *Spec) { s.MemBytes = 0 },
		func(s *Spec) { s.MinItemsPerThread = 0 },
		func(s *Spec) { s.ParallelOverhead = -0.1 },
	}
	for i, mutate := range cases {
		s := V100()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestNewPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid spec did not panic")
		}
	}()
	s := V100()
	s.Threads = 0
	New(s)
}

func TestKindString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind produced empty string")
	}
}

func TestInitOncePaysOnce(t *testing.T) {
	d := New(V100())
	first := d.Init()
	if first != V100().InitCost {
		t.Fatalf("first init cost = %v, want %v", first, V100().InitCost)
	}
	if again := d.Init(); again != 0 {
		t.Fatalf("second init cost = %v, want 0", again)
	}
	if d.initCount != 1 {
		t.Fatalf("init count = %d, want 1", d.initCount)
	}
}

func TestShutdownForcesReinit(t *testing.T) {
	d := New(V100())
	d.Init()
	d.Shutdown()
	if c := d.Init(); c != V100().InitCost {
		t.Fatalf("re-init after shutdown cost = %v, want full cost", c)
	}
	if d.initCount != 2 {
		t.Fatalf("init count = %d, want 2", d.initCount)
	}
}

func TestLaunchRequiresInit(t *testing.T) {
	d := New(V100())
	if _, err := d.Launch(10, 0, 0, 1, func(s, e int) {}); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("launch before init: err = %v, want ErrNotInitialized", err)
	}
}

func TestAllocOOM(t *testing.T) {
	s := V100()
	s.MemBytes = 100
	d := New(s)
	d.Init()
	if err := d.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(41); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-alloc err = %v, want ErrOutOfMemory", err)
	}
	if d.allocated != 60 {
		t.Fatalf("allocated = %d after a refused alloc, want 60", d.allocated)
	}
	// Shutdown is what releases device memory.
	d.Shutdown()
	d.Init()
	if err := d.Alloc(100); err != nil {
		t.Fatalf("alloc after shutdown: %v", err)
	}
	if d.allocated != 100 {
		t.Fatalf("allocated = %d, want 100", d.allocated)
	}
}

func TestAllocRequiresInit(t *testing.T) {
	d := New(V100())
	if err := d.Alloc(1); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("err = %v, want ErrNotInitialized", err)
	}
}

func TestAllocNegative(t *testing.T) {
	d := New(V100())
	d.Init()
	if err := d.Alloc(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

// The kernel must actually execute over every item exactly once, one call
// per grain whatever the host parallelism.
func TestLaunchRunsKernelExactly(t *testing.T) {
	d := New(Xeon20())
	d.Init()
	const n = 100_000
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		counts := make([]int32, n)
		_, err := d.Launch(n, 0, 0, 1, func(s, e int) {
			if s%Grain != 0 || e != min(s+Grain, n) {
				t.Errorf("GOMAXPROCS %d: kernel call [%d,%d) is not a grain", procs, s, e)
			}
			for i := s; i < e; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("GOMAXPROCS %d: item %d processed %d times", procs, i, c)
			}
		}
	}
}

// A kernel is user code (the template's MSGGen/MSGApply/MSGMerge): its
// panic is the launch's error, with the stack, and the device lives on.
func TestLaunchKernelPanicIsError(t *testing.T) {
	d := New(Xeon20())
	d.Init()
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		_, err := d.Launch(3*Grain, 0, 0, 1, func(s, e int) {
			if s >= Grain {
				panic("synthetic kernel panic")
			}
		})
		runtime.GOMAXPROCS(prev)
		for _, want := range []string{"device Xeon-E5-2698v4: kernel:", "item 1 panicked: synthetic kernel panic", "goroutine "} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("GOMAXPROCS %d: error lacks %q:\n%v", procs, want, err)
			}
		}
		if _, err := d.Launch(10, 0, 0, 1, func(s, e int) {}); err != nil {
			t.Fatalf("launch after a kernel panic: %v", err)
		}
	}
}

func TestLaunchZeroItems(t *testing.T) {
	d := New(V100())
	d.Init()
	cost, err := d.Launch(0, 0, 0, 1, func(s, e int) { t.Error("kernel ran for n=0") })
	if err != nil {
		t.Fatal(err)
	}
	if cost != V100().LaunchLatency {
		t.Fatalf("zero-item launch cost = %v, want bare launch latency", cost)
	}
}

func TestLaunchNegativeItems(t *testing.T) {
	d := New(V100())
	d.Init()
	if _, err := d.Launch(-1, 0, 0, 1, nil); err == nil {
		t.Fatal("negative n accepted")
	}
}

// Cost model structure: cost = latency + copy + compute, each term
// separately visible.
func TestCostModelComposition(t *testing.T) {
	s := V100()
	d := New(s)
	d.Init()
	bare, _ := d.Launch(0, 0, 0, 0, nil)
	withCopy, _ := d.Launch(0, int64(s.CopyBandwidth), 0, 0, nil) // exactly 1s of copy
	if diff := withCopy - bare; diff != time.Second {
		t.Fatalf("copy term = %v, want 1s", diff)
	}
}

// A GPU must beat the CPU accelerator on a big compute-bound launch, and
// the CPU accelerator must beat a single thread — the ordering that
// underlies every acceleration ratio in Fig 8.
func TestDeviceOrdering(t *testing.T) {
	gpu := New(V100())
	cpu := New(Xeon20())
	gpu.Init()
	cpu.Init()
	const n = 1 << 20
	const ops = 50.0
	gt, _ := gpu.Launch(n, 0, 0, ops, nil)
	ct, _ := cpu.Launch(n, 0, 0, ops, nil)
	if gt >= ct {
		t.Fatalf("GPU (%v) not faster than CPU accelerator (%v)", gt, ct)
	}
	// Single-threaded baseline at the CPU's per-thread rate.
	single := time.Duration(float64(n) * ops / Xeon20().OpsPerThread * float64(time.Second))
	if ct >= single {
		t.Fatalf("CPU accelerator (%v) not faster than single thread (%v)", ct, single)
	}
	ratio := float64(ct) / float64(gt)
	if ratio < 2 || ratio > 12 {
		t.Fatalf("GPU/CPU speedup %0.1fx outside the calibrated 2-12x band", ratio)
	}
}

// Small launches cannot use all threads: effective rate must scale down.
func TestEffectiveRateSmallLaunch(t *testing.T) {
	d := New(V100())
	tiny := d.EffectiveRate(1)
	big := d.EffectiveRate(1 << 24)
	if tiny >= big {
		t.Fatalf("1-item rate %v >= saturated rate %v", tiny, big)
	}
	if tiny != V100().OpsPerThread {
		t.Fatalf("1-item rate = %v, want single-thread rate %v", tiny, V100().OpsPerThread)
	}
}

// Property: launch cost is monotone in n, bytes, and ops.
func TestCostMonotoneQuick(t *testing.T) {
	d := New(V100())
	d.Init()
	f := func(n uint16, extra uint16, bytes uint32) bool {
		base := d.cost(int(n), int64(bytes), 0, 8)
		moreItems := d.cost(int(n)+int(extra), int64(bytes), 0, 8)
		moreBytes := d.cost(int(n), int64(bytes)+int64(extra), 0, 8)
		moreOps := d.cost(int(n), int64(bytes), 0, 8+float64(extra))
		return moreItems >= base && moreBytes >= base && moreOps >= base
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// Property: effective rate never exceeds linear scaling and never drops
// below the single-thread rate.
func TestEffectiveRateBoundsQuick(t *testing.T) {
	d := New(V100())
	s := V100()
	f := func(n uint32) bool {
		r := d.EffectiveRate(int(n))
		return r >= s.OpsPerThread-1e-9 && r <= s.OpsPerThread*float64(s.Threads)+1e-9
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
