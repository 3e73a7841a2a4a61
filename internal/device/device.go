// Package device simulates the accelerators that GX-Plug daemons wrap:
// many-core CPUs and GPUs (§V-A treats a 20-thread CPU and a 1024-thread
// V100 GPU as the two accelerator classes).
//
// A Device executes kernels for real — the kernel body runs on the host
// helper pool (internal/par) over the actual data, so results are exact —
// while the time it reports comes from a calibrated virtual cost model with
// the three components the paper's pipeline analysis identifies (§III-A3):
//
//	T_c(b) = T_call + T_copy(b) + T_comp(b)
//
// a fixed per-launch latency, a PCIe-class copy term proportional to the
// bytes moved, and a compute term proportional to the operation count
// divided by the device's effective parallelism. Devices also model a
// memory capacity (GPUs OOM on graphs that do not fit — Fig 9b) and an
// expensive one-time initialization (the runtime-isolation experiment of
// Fig 13 measures exactly the cost of paying it once versus per call).
package device

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"gxplug/internal/par"
	"gxplug/internal/simtime"
)

// Kind classifies an accelerator.
type Kind int

const (
	// CPU is a multi-core host processor used as an accelerator.
	CPU Kind = iota
	// GPU is a discrete many-thread accelerator behind a copy link.
	GPU
)

func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrOutOfMemory reports that an allocation exceeded device memory.
var ErrOutOfMemory = errors.New("device: out of memory")

// ErrNotInitialized reports a launch on a device whose runtime has not
// been brought up (or was torn down).
var ErrNotInitialized = errors.New("device: not initialized")

// Spec is the calibrated model of one accelerator.
type Spec struct {
	Name    string
	Kind    Kind
	Threads int // hardware parallelism exposed to kernels

	// OpsPerThread is the per-thread compute rate in operations/second.
	OpsPerThread float64
	// ParallelOverhead damps effective speedup: effective parallelism for
	// p busy threads is p / (1 + ParallelOverhead * ln(p)). It models the
	// strong-scaling losses (scheduling, memory contention) that keep real
	// accelerators below linear speedup.
	ParallelOverhead float64
	// MinItemsPerThread bounds useful parallelism from below: a launch of
	// n items can busy at most ceil(n / MinItemsPerThread) threads.
	MinItemsPerThread int

	// LaunchLatency is T_call: the fixed cost of invoking the device
	// (kernel launch, driver call — and for the GraphX path, the residual
	// per-batch JNI cost is added by the engine, not here).
	LaunchLatency time.Duration
	// CopyBandwidth is the host<->device link bandwidth in bytes/second
	// (PCIe-class for GPUs; memory-bus class for CPU "accelerators").
	CopyBandwidth float64

	// MemBytes is device memory capacity; Alloc fails beyond it.
	MemBytes int64
	// InitCost is the one-time runtime bring-up cost (CUDA context
	// creation and friends). Paid by Init; paid repeatedly in raw-call
	// mode (Fig 13).
	InitCost time.Duration
}

// Validate checks the spec for model sanity.
func (s Spec) Validate() error {
	switch {
	case s.Threads <= 0:
		return fmt.Errorf("device %q: threads %d", s.Name, s.Threads)
	case s.OpsPerThread <= 0:
		return fmt.Errorf("device %q: ops/thread %v", s.Name, s.OpsPerThread)
	case s.CopyBandwidth <= 0:
		return fmt.Errorf("device %q: copy bandwidth %v", s.Name, s.CopyBandwidth)
	case s.MemBytes <= 0:
		return fmt.Errorf("device %q: memory %d", s.Name, s.MemBytes)
	case s.MinItemsPerThread <= 0:
		return fmt.Errorf("device %q: min items/thread %d", s.Name, s.MinItemsPerThread)
	case s.ParallelOverhead < 0:
		return fmt.Errorf("device %q: parallel overhead %v", s.Name, s.ParallelOverhead)
	}
	return nil
}

// V100 models the NVIDIA V100 of the paper's testbed as a 1024-thread
// accelerator with 16 GB of memory. Rates are calibrated so that a GPU
// daemon outruns a CPU daemon by roughly 4-9x on compute-bound kernels
// and 2-5x end-to-end once copies are included, matching the acceleration
// ratios of Fig 8. Copy bandwidth is NVLink-class: the paper's testbed is
// a DGX workstation and V100 cluster nodes, both NVLink-attached.
func V100() Spec {
	return Spec{
		Name:              "V100",
		Kind:              GPU,
		Threads:           1024,
		OpsPerThread:      2.0e8,
		ParallelOverhead:  0.05,
		MinItemsPerThread: 16,
		LaunchLatency:     10 * time.Microsecond,
		CopyBandwidth:     40e9, // NVLink-attached V100
		MemBytes:          16 << 30,
		InitCost:          1800 * time.Millisecond,
	}
}

// V100Scaled returns the V100 model with memory scaled down by the same
// divisor as the datasets, so the paper's OOM boundaries (Fig 9b)
// reproduce at any scale. Scale values below 1 are treated as 1.
func V100Scaled(scale int64) Spec {
	s := V100()
	if scale < 1 {
		scale = 1
	}
	s.MemBytes /= scale
	if s.MemBytes < 1<<16 {
		s.MemBytes = 1 << 16
	}
	return s
}

// Xeon20 models the 20-core Xeon E5-2698 v4 used as a CPU accelerator
// ("we treat CPU in one node as an accelerator which has a 20-thread
// multithread processing model", §V-A).
func Xeon20() Spec {
	return Spec{
		Name:              "Xeon-E5-2698v4",
		Kind:              CPU,
		Threads:           20,
		OpsPerThread:      1.0e9,
		ParallelOverhead:  0.05,
		MinItemsPerThread: 256,
		LaunchLatency:     5 * time.Microsecond,
		CopyBandwidth:     40e9, // host memory bus; no PCIe hop
		MemBytes:          256 << 30,
		InitCost:          40 * time.Millisecond,
	}
}

// Device is one simulated accelerator instance.
type Device struct {
	spec Spec

	mu          sync.Mutex
	initialized bool
	allocated   int64
	initCount   int // how many times Init paid the bring-up cost

	// A device runs one kernel at a time: k and n are the running launch's,
	// under running. grain is runGrain, bound once, so that launching a
	// kernel itself bound once (gen: a launch per block) allocates nothing.
	running sync.Mutex
	k       Kernel
	n       int
	grain   func(g int) error
}

// New creates a device from a validated spec. It panics on an invalid
// spec: specs are program constants, not runtime input.
func New(spec Spec) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	d := &Device{spec: spec}
	d.grain = d.runGrain
	return d
}

// Spec returns the device's model parameters.
func (d *Device) Spec() Spec { return d.spec }

// Init brings up the device runtime and returns the virtual cost paid.
// Calling Init on an already-initialized device is free and returns zero —
// this is precisely the benefit the persistent daemon buys (Fig 13).
func (d *Device) Init() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.initialized {
		return 0
	}
	d.initialized = true
	d.initCount++
	return d.spec.InitCost
}

// Shutdown tears the runtime down and releases all allocations. The next
// Init pays the full bring-up cost again — this is what happens every
// iteration in the paper's "raw call" comparison.
func (d *Device) Shutdown() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.initialized = false
	d.allocated = 0
}

// Alloc reserves n bytes of device memory, failing with ErrOutOfMemory if
// the capacity would be exceeded.
func (d *Device) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("device %s: negative alloc %d", d.spec.Name, n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.initialized {
		return fmt.Errorf("device %s: %w", d.spec.Name, ErrNotInitialized)
	}
	if d.allocated+n > d.spec.MemBytes {
		return fmt.Errorf("device %s: alloc %d with %d/%d used: %w",
			d.spec.Name, n, d.allocated, d.spec.MemBytes, ErrOutOfMemory)
	}
	d.allocated += n
	return nil
}

// Kernel is a data-parallel kernel body: it must process items [start,end)
// and be safe to run concurrently on disjoint ranges.
type Kernel func(start, end int)

// Grain is the number of items one kernel call covers: Launch splits
// [0, n) at multiples of it whatever the host, so what a kernel accumulates
// per call does not depend on GOMAXPROCS.
const Grain = 2048

// Launch executes a kernel over n items and returns the virtual time
// charged: launch latency + copy of bytesIn+bytesOut over the device link
// + opsPerItem*n over the device's effective compute rate. The kernel body
// runs for real, one call per grain, on the host helper pool; a panic in
// it is the launch's error. A nil kernel charges without running anything.
func (d *Device) Launch(n int, bytesIn, bytesOut int64, opsPerItem float64, k Kernel) (time.Duration, error) {
	d.mu.Lock()
	if !d.initialized {
		d.mu.Unlock()
		return 0, fmt.Errorf("device %s: launch: %w", d.spec.Name, ErrNotInitialized)
	}
	d.mu.Unlock()
	if n < 0 {
		return 0, fmt.Errorf("device %s: launch with n=%d", d.spec.Name, n)
	}
	if n > 0 && k != nil {
		d.running.Lock()
		d.k, d.n = k, n
		err := par.Do((n+Grain-1)/Grain, d.grain)
		d.k = nil
		d.running.Unlock()
		if err != nil { // its recovered panic; %v, as the grain it names is no caller's index
			return 0, fmt.Errorf("device %s: kernel: %v", d.spec.Name, err)
		}
	}
	return d.cost(n, bytesIn, bytesOut, opsPerItem), nil
}

// runGrain is the running kernel's call for grain g.
func (d *Device) runGrain(g int) error {
	d.k(g*Grain, min((g+1)*Grain, d.n))
	return nil
}

// cost computes the virtual time of one launch without running anything.
func (d *Device) cost(n int, bytesIn, bytesOut int64, opsPerItem float64) time.Duration {
	t := d.spec.LaunchLatency
	if b := bytesIn + bytesOut; b > 0 {
		t += simtime.TimeFor(float64(b), d.spec.CopyBandwidth)
	}
	if n > 0 && opsPerItem > 0 {
		t += simtime.TimeFor(float64(n)*opsPerItem, d.spec.EffectiveRate(n))
	}
	return t
}

// EffectiveRate returns the spec's aggregate compute rate in ops/second
// for a launch of n items: per-thread rate times effective parallelism.
func (s Spec) EffectiveRate(n int) float64 {
	p := s.busyThreads(n)
	eff := float64(p)
	if p > 1 && s.ParallelOverhead > 0 {
		eff = float64(p) / (1 + s.ParallelOverhead*math.Log(float64(p)))
	}
	return s.OpsPerThread * eff
}

func (s Spec) busyThreads(n int) int {
	if n <= 0 {
		return 1
	}
	p := (n + s.MinItemsPerThread - 1) / s.MinItemsPerThread
	if p > s.Threads {
		p = s.Threads
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Capacity is the summed saturated compute rate of specs in ops/second:
// each one's EffectiveRate for a launch large enough to busy every
// thread. It is the one price of a node's accelerators — Lemma 2's
// workload balancer, the planner's estimate and an agent's split of work
// across its daemons all read it.
func Capacity(specs ...Spec) float64 {
	var rate float64
	for _, s := range specs {
		rate += s.EffectiveRate(1 << 20)
	}
	return rate
}
