// Package pipeline implements the analytical side of GX-Plug's pipeline
// shuffle (§III-A): the three-stage cost model of Equation 2 and the
// optimal block size of Lemma 1.
//
// The runtime side of the pipeline — the three threads exchanging
// ExchangeFinished/RotateFinished/ComputeFinished flags and rotating the
// n/c/u memory chunks (Algorithms 1 and 2) — lives in the gxplug package,
// inside the agent and daemon.
package pipeline

import (
	"math"
	"time"
)

// Coefficients are the measured per-entity costs of the three pipeline
// stages plus the fixed device-call cost, exactly as the paper models them
// in §III-A3: Tn = k1·b, Tc = a + k2·b, Tu = k3·b.
type Coefficients struct {
	// K1, K2, K3 are download, compute and upload seconds per data entity.
	K1, K2, K3 float64
	// A is the fixed seconds per device call (T_call).
	A float64
}

// Paper's measured coefficients (footnote 6 of §V-B7), in microseconds per
// entity and microseconds per call; used by the Fig 15 reproduction. The
// footnote labels the third row "SSSP" a second time; by elimination it is
// LP.
var (
	// PaperSSSP is (k1,k2,k3,a) = (0.03, 0.51, 0.09, 84671) µs.
	PaperSSSP = Coefficients{K1: 0.03e-6, K2: 0.51e-6, K3: 0.09e-6, A: 84671e-6}
	// PaperPR is (k1,k2,k3,a) = (0.02, 0.58, 0.10, 1970) µs.
	PaperPR = Coefficients{K1: 0.02e-6, K2: 0.58e-6, K3: 0.10e-6, A: 1970e-6}
	// PaperLP is (k1,k2,k3,a) = (0.003, 0.59, 0.006, 498) µs.
	PaperLP = Coefficients{K1: 0.003e-6, K2: 0.59e-6, K3: 0.006e-6, A: 498e-6}
)

// Estimate evaluates Equation 2 of the paper: the makespan of a
// three-stage pipeline over d entities split into s equal blocks of size
// b = d/s, with stage costs Tn = k1·b, Tc = a + k2·b, Tu = k3·b.
func (c Coefficients) Estimate(d float64, s int) time.Duration {
	if d <= 0 || s <= 0 {
		return 0
	}
	b := d / float64(s)
	tn := c.K1 * b
	tc := c.A + c.K2*b
	tu := c.K3 * b
	var total float64
	switch {
	case s == 1:
		total = tn + tc + tu
	case s == 2:
		total = tn + math.Max(tn, tc) + math.Max(tc, tu) + tu
	default:
		total = tn + math.Max(tn, tc) +
			float64(s-2)*math.Max(tn, math.Max(tc, tu)) +
			math.Max(tc, tu) + tu
	}
	return time.Duration(total * float64(time.Second))
}

// OptimalBlockSize computes b_opt of Lemma 1 for d entities. It returns
// the continuous optimum clamped to [1, d].
func (c Coefficients) OptimalBlockSize(d float64) float64 {
	if d <= 0 {
		return 1
	}
	q := math.Sqrt(c.A * d / (c.K1 + c.K3))
	b := q
	kmax := math.Max(c.K1, math.Max(c.K2, c.K3))
	switch {
	case kmax == c.K1 && c.K1 > c.K2:
		if cand := c.A / (c.K1 - c.K2); cand < q {
			b = cand
		}
	case kmax == c.K3 && c.K3 > c.K2:
		if cand := c.A / (c.K3 - c.K2); cand < q {
			b = cand
		}
	}
	if b < 1 {
		b = 1
	}
	if b > d {
		b = d
	}
	return b
}

// OptimalBlocks converts b_opt into an integer block count s, testing the
// floor and ceiling as §III-A3 prescribes ("if b_opt or s_opt is not an
// integer, we choose 2 values ⌊s⌋ and ⌈s⌉ ... so that Equation 2 can be
// used for estimating the minimum") and returning the better.
func (c Coefficients) OptimalBlocks(d float64) int {
	if d <= 0 {
		return 1
	}
	sOpt := d / c.OptimalBlockSize(d)
	lo := int(math.Floor(sOpt))
	hi := int(math.Ceil(sOpt))
	if lo < 1 {
		lo = 1
	}
	if hi < 1 {
		hi = 1
	}
	if c.Estimate(d, lo) <= c.Estimate(d, hi) {
		return lo
	}
	return hi
}
