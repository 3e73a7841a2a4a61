package simtime

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.Advance(time.Hour)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset: clock = %v, want 0", c.Now())
	}
}

func TestTimeFor(t *testing.T) {
	if got := TimeFor(100, 100); got != time.Second {
		t.Fatalf("TimeFor(100,100) = %v, want 1s", got)
	}
	if got := TimeFor(0, 100); got != 0 {
		t.Fatalf("TimeFor(0,100) = %v, want 0", got)
	}
	if got := TimeFor(-5, 100); got != 0 {
		t.Fatalf("TimeFor(-5,100) = %v, want 0", got)
	}
}

func TestTimeForBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TimeFor with zero rate did not panic")
		}
	}()
	TimeFor(1, 0)
}

func TestPipelineMakespanEmpty(t *testing.T) {
	if got := PipelineMakespan(nil); got != 0 {
		t.Fatalf("empty makespan = %v, want 0", got)
	}
	if got := PipelineMakespan([]StageCosts{{}}); got != 0 {
		t.Fatalf("zero-stage makespan = %v, want 0", got)
	}
}

func TestPipelineMakespanSingleBlock(t *testing.T) {
	costs := []StageCosts{{time.Second, 2 * time.Second, time.Second}}
	if got := PipelineMakespan(costs); got != 4*time.Second {
		t.Fatalf("single block makespan = %v, want 4s", got)
	}
}

// With uniform stage costs the wavefront recurrence must agree with the
// textbook formula (stages + blocks - 1) * cost, which is also what the
// paper's Equation 1 reduces to when Tn = Tc = Tu.
func TestPipelineMakespanUniform(t *testing.T) {
	const blocks, stages = 7, 3
	unit := time.Second
	costs := make([]StageCosts, blocks)
	for i := range costs {
		costs[i] = StageCosts{unit, unit, unit}
	}
	want := time.Duration(blocks+stages-1) * unit
	if got := PipelineMakespan(costs); got != want {
		t.Fatalf("uniform makespan = %v, want %v", got, want)
	}
	_ = stages
}

// Matches Equation 1 of the paper for a dominant middle stage:
// Ttotal = Tn + (s-1)*Tc + Tu when Tc >= Tn, Tc >= Tu.
func TestPipelineMakespanDominantCompute(t *testing.T) {
	tn, tc, tu := 1*time.Second, 5*time.Second, 2*time.Second
	const s = 6
	costs := make([]StageCosts, s)
	for i := range costs {
		costs[i] = StageCosts{tn, tc, tu}
	}
	want := tn + s*tc + tu
	if got := PipelineMakespan(costs); got != want {
		t.Fatalf("dominant-compute makespan = %v, want %v", got, want)
	}
}

func TestSequentialMakespan(t *testing.T) {
	costs := []StageCosts{
		{time.Second, time.Second, time.Second},
		{2 * time.Second, 2 * time.Second, 2 * time.Second},
	}
	if got := SequentialMakespan(costs); got != 9*time.Second {
		t.Fatalf("sequential makespan = %v, want 9s", got)
	}
}

// Property: pipelining never loses to sequential execution, and never beats
// the busiest stage's total work (both classic pipeline bounds).
func TestPipelineMakespanBounds(t *testing.T) {
	f := func(raw [][3]uint16) bool {
		if len(raw) == 0 {
			return true
		}
		costs := make([]StageCosts, len(raw))
		stageSum := [3]time.Duration{}
		for i, r := range raw {
			costs[i] = StageCosts{
				time.Duration(r[0]) * time.Millisecond,
				time.Duration(r[1]) * time.Millisecond,
				time.Duration(r[2]) * time.Millisecond,
			}
			for s := 0; s < 3; s++ {
				stageSum[s] += costs[i][s]
			}
		}
		pipe := PipelineMakespan(costs)
		seq := SequentialMakespan(costs)
		if pipe > seq {
			return false
		}
		lower := stageSum[0]
		for _, v := range stageSum[1:] {
			if v > lower {
				lower = v
			}
		}
		return pipe >= lower
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// Property: makespan is monotone — increasing any single stage cost can
// never decrease the total.
func TestPipelineMakespanMonotone(t *testing.T) {
	f := func(raw [][3]uint8, which uint8) bool {
		if len(raw) == 0 {
			return true
		}
		costs := make([]StageCosts, len(raw))
		for i, r := range raw {
			costs[i] = StageCosts{
				time.Duration(r[0]) * time.Millisecond,
				time.Duration(r[1]) * time.Millisecond,
				time.Duration(r[2]) * time.Millisecond,
			}
		}
		before := PipelineMakespan(costs)
		k := int(which) % len(costs)
		s := int(which) % 3
		costs[k][s] += 10 * time.Millisecond
		after := PipelineMakespan(costs)
		return after >= before
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

func TestPipelineMakespanRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged stage counts did not panic")
		}
	}()
	PipelineMakespan([]StageCosts{{1, 2, 3}, {1, 2}})
}

func TestLog2Ceil(t *testing.T) {
	for n, want := range map[int]int{-1: 0, 0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10} {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
