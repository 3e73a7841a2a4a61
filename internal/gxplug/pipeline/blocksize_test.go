package pipeline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEstimateDegenerate(t *testing.T) {
	if PaperPR.Estimate(0, 10) != 0 || PaperPR.Estimate(100, 0) != 0 {
		t.Fatal("degenerate inputs not zero")
	}
}

// With one block the pipeline is just the three stages in sequence.
func TestEstimateSingleBlock(t *testing.T) {
	c := Coefficients{K1: 1e-3, K2: 2e-3, K3: 3e-3, A: 0.5}
	got := c.Estimate(100, 1)
	want := time.Duration((1e-3*100 + 0.5 + 2e-3*100 + 3e-3*100) * float64(time.Second))
	if diff := (got - want).Abs(); diff > time.Microsecond {
		t.Fatalf("single-block estimate %v, want %v", got, want)
	}
}

// Equation 2 must agree with a direct wavefront simulation of the same
// uniform blocks (the closed form is exact for equal-sized blocks).
func TestEstimateMatchesWavefront(t *testing.T) {
	c := Coefficients{K1: 0.4e-3, K2: 1.1e-3, K3: 0.7e-3, A: 2e-3}
	for _, s := range []int{1, 2, 3, 7, 50} {
		d := 10_000.0
		b := d / float64(s)
		tn := time.Duration(c.K1 * b * float64(time.Second))
		tc := time.Duration((c.A + c.K2*b) * float64(time.Second))
		tu := time.Duration(c.K3 * b * float64(time.Second))
		// Direct wavefront recurrence.
		finish := [3]time.Duration{}
		for k := 0; k < s; k++ {
			var prev time.Duration
			for st, cost := range [3]time.Duration{tn, tc, tu} {
				start := prev
				if finish[st] > start {
					start = finish[st]
				}
				finish[st] = start + cost
				prev = finish[st]
			}
		}
		got := c.Estimate(d, s)
		diff := got - finish[2]
		if diff < 0 {
			diff = -diff
		}
		if diff > time.Microsecond {
			t.Fatalf("s=%d: Estimate=%v wavefront=%v", s, got, finish[2])
		}
	}
}

// The U-shape of §III-A3: very small and very large block counts are both
// worse than the optimum.
func TestEstimateUShape(t *testing.T) {
	const d = 100_000
	for _, c := range []Coefficients{PaperSSSP, PaperPR, PaperLP} {
		sOpt := c.OptimalBlocks(d)
		atOpt := c.Estimate(d, sOpt)
		if one := c.Estimate(d, 1); one < atOpt {
			t.Fatalf("s=1 (%v) beats s_opt=%d (%v)", one, sOpt, atOpt)
		}
		if huge := c.Estimate(d, d); huge < atOpt {
			t.Fatalf("s=d (%v) beats s_opt=%d (%v)", huge, sOpt, atOpt)
		}
	}
}

// Lemma 1: the closed-form optimum is never beaten by any sampled integer
// block count (within the rounding slack of forcing integral s).
func TestLemma1OptimalityQuick(t *testing.T) {
	f := func(rk1, rk2, rk3, ra uint16, rd uint32) bool {
		c := Coefficients{
			K1: float64(rk1%997+1) * 1e-6,
			K2: float64(rk2%997+1) * 1e-6,
			K3: float64(rk3%997+1) * 1e-6,
			A:  float64(ra%9973+1) * 1e-5,
		}
		d := float64(rd%1_000_000 + 1000)
		bOpt := c.OptimalBlockSize(d)
		if bOpt < 1 || bOpt > d {
			return false
		}
		best := c.Estimate(d, c.OptimalBlocks(d))
		// Sample block counts around and away from the optimum.
		for _, s := range []int{1, 2, 4, 8, 16, 64, 256, 1024, 4096} {
			if float64(s) > d {
				break
			}
			if got := c.Estimate(d, s); float64(got) < float64(best)*0.999 {
				return false
			}
		}
		return true
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// minTotal evaluates the closed-form minimum T_total of Lemma 1: the
// reference the OptimalBlocks search is held to.
func (c Coefficients) minTotal(d float64) time.Duration {
	if d <= 0 {
		return 0
	}
	q := math.Sqrt(c.A * d / (c.K1 + c.K3))
	kmax := math.Max(c.K1, math.Max(c.K2, c.K3))
	otherwise := c.K2*d + 2*math.Sqrt((c.K1+c.K3)*c.A*d)
	var total float64
	switch {
	case kmax == c.K1 && c.K1 > c.K2 && c.A/(c.K1-c.K2) < q:
		total = c.A*(c.K1+c.K3)/(c.K1-c.K2) + c.K1*d
	case kmax == c.K3 && c.K3 > c.K2 && c.A/(c.K3-c.K2) < q:
		total = c.A*(c.K1+c.K3)/(c.K3-c.K2) + c.K3*d
	default:
		total = otherwise
	}
	return time.Duration(total * float64(time.Second))
}

// minTotal must agree with Estimate at the chosen optimum to within the
// integrality slack.
func TestMinTotalConsistent(t *testing.T) {
	for _, c := range []Coefficients{PaperSSSP, PaperPR, PaperLP} {
		const d = 500_000
		closed := c.minTotal(d).Seconds()
		atInt := c.Estimate(d, c.OptimalBlocks(d)).Seconds()
		if atInt < closed*0.98 {
			t.Fatalf("integer estimate %.4fs beats closed form %.4fs by >2%%", atInt, closed)
		}
		if atInt > closed*1.25 {
			t.Fatalf("integer estimate %.4fs is >25%% above closed form %.4fs", atInt, closed)
		}
	}
}

// The paper's Fig 15 coefficients put s_opt in the tens for SSSP (large a)
// and higher for LP (tiny a): sanity-check the ordering.
func TestPaperCoefficientOrdering(t *testing.T) {
	const d = 1_000_000
	sSSSP := PaperSSSP.OptimalBlocks(d)
	sLP := PaperLP.OptimalBlocks(d)
	if sSSSP >= sLP {
		t.Fatalf("s_opt(SSSP)=%d not below s_opt(LP)=%d; a=84671µs should force big blocks", sSSSP, sLP)
	}
	if sSSSP < 1 || sSSSP > 100 {
		t.Fatalf("s_opt(SSSP)=%d implausible for the paper's coefficients", sSSSP)
	}
}

// sequentialEstimate is the "WithoutPipeline" cost of the original 5-step
// flow: the three stage costs run strictly one after another, plus the
// two inter-process transfer steps that shared memory eliminates —
// modelled as one extra copy of the block in each direction at copy rate
// copySecPerEntity seconds/entity: what the pipelined estimate is held
// to beat.
func (c Coefficients) sequentialEstimate(d float64, s int, copySecPerEntity float64) time.Duration {
	if d <= 0 || s <= 0 {
		return 0
	}
	b := d / float64(s)
	perBlock := c.K1*b + (c.A + c.K2*b) + c.K3*b + 2*copySecPerEntity*b
	return time.Duration(float64(s) * perBlock * float64(time.Second))
}

// The sequential (5-step, WithoutPipeline) estimate must exceed the
// pipelined estimate at the same block count — the Fig 10 ordering.
func TestSequentialSlowerThanPipelined(t *testing.T) {
	const d = 200_000
	for _, c := range []Coefficients{PaperSSSP, PaperPR, PaperLP} {
		s := c.OptimalBlocks(d)
		pip := c.Estimate(d, s)
		seq := c.sequentialEstimate(d, s, 0.01e-6)
		if seq <= pip {
			t.Fatalf("sequential %v not slower than pipelined %v", seq, pip)
		}
	}
}

func TestOptimalBlockSizeClamps(t *testing.T) {
	c := PaperPR
	if b := c.OptimalBlockSize(0); b != 1 {
		t.Fatalf("d=0: b=%v, want 1", b)
	}
	if b := c.OptimalBlockSize(5); b > 5 {
		t.Fatalf("b=%v exceeds d=5", b)
	}
	if s := c.OptimalBlocks(0); s != 1 {
		t.Fatalf("d=0: s=%v, want 1", s)
	}
}

// OptimalBlockSize must hit the case-1 branch when k1 dominates: with a
// huge download coefficient the bound a/(k1-k2) binds before Q.
func TestLemma1Case1Branch(t *testing.T) {
	c := Coefficients{K1: 1e-3, K2: 0.9e-3, K3: 1e-6, A: 1e-2}
	d := 1e9
	b := c.OptimalBlockSize(d)
	want := c.A / (c.K1 - c.K2)
	if math.Abs(b-want)/want > 1e-9 {
		q := math.Sqrt(c.A * d / (c.K1 + c.K3))
		t.Fatalf("b=%v, want case-1 bound %v (Q=%v)", b, want, q)
	}
}
