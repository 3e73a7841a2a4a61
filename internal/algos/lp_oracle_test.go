package algos

import (
	"math"
	"math/rand"
	"testing"
)

// lpMergeOracle is LP's MSGMerge before it stopped at the first empty
// slot, verbatim apart from the name: it reads every slot of the message.
func lpMergeOracle(acc, msg []float64) {
	for i := 0; i < lpSlots; i++ {
		label, count := msg[2*i], msg[2*i+1]
		if label < 0 || count <= 0 {
			continue
		}
		mergeLabelOracle(acc, label, count)
	}
}

// mergeLabelOracle is mergeLabel before it stopped at the first empty slot,
// verbatim apart from the name: it scans every slot of the row.
func mergeLabelOracle(acc []float64, label, count float64) {
	empty := -1
	minAt, minCount := -1, math.Inf(1)
	for i := 0; i < lpSlots; i++ {
		al, ac := acc[2*i], acc[2*i+1]
		if al == label {
			acc[2*i+1] = ac + count
			return
		}
		if al < 0 && empty < 0 {
			empty = i
		}
		if al >= 0 && ac < minCount {
			minAt, minCount = i, ac
		}
	}
	if empty >= 0 {
		acc[2*empty] = label
		acc[2*empty+1] = count
		return
	}
	// Sketch full: evict the lightest entry if the newcomer is heavier
	// (space-saving flavour; deterministic).
	if minAt >= 0 && count > minCount {
		acc[2*minAt] = label
		acc[2*minAt+1] = count
	}
}

// prefixRow returns a histogram row with its first filled slots holding
// distinct labels from a small palette (so rows share labels) and counts
// from a small range (so counts tie), and every later slot empty.
func prefixRow(rng *rand.Rand, filled int) []float64 {
	row := make([]float64, 2*lpSlots)
	NewLP().MergeIdentity(row)
	labels := rng.Perm(12)
	for i := 0; i < filled; i++ {
		row[2*i], row[2*i+1] = float64(labels[i]), float64(1+rng.Intn(3))
	}
	return row
}

// TestLPMergeMatchesOracle holds LP's early-exit MSGMerge to the full-scan
// merge it replaced, bit for bit, on prefix-form histograms: empty, partly
// filled and full accumulators and messages, merged once and in chains.
// Labels already present, equal-count ties and full-sketch evictions (of
// a lighter entry, and refused to a newcomer no heavier) must all occur:
// the test counts them.
func TestLPMergeMatchesOracle(t *testing.T) {
	lp := NewLP()
	rng := rand.New(rand.NewSource(31))
	seen := map[string]int{}
	for trial := 0; trial < 4000; trial++ {
		got := prefixRow(rng, rng.Intn(lpSlots+1))
		want := append([]float64(nil), got...)
		for step := 0; step < 1+rng.Intn(4); step++ {
			msg := prefixRow(rng, rng.Intn(lpSlots+1))
			classifyLPMerge(want, msg, seen)
			lp.MSGMerge(got, msg)
			lpMergeOracle(want, msg)
			if !bitsEqual(got, want) {
				t.Fatalf("trial %d step %d: merging %v gives %v, oracle %v", trial, step, msg, got, want)
			}
		}
	}
	for _, what := range []string{"empty", "partly filled", "full", "present", "tie", "eviction", "refused"} {
		if seen[what] == 0 {
			t.Errorf("no %q case was generated", what)
		}
	}
}

// classifyLPMerge counts, in seen, the cases merging msg into acc meets:
// the accumulator's fill before the merge, then per message entry whether
// its label is present, or the sketch is full and the newcomer evicts the
// lightest entry or is refused, and whether the lightest count is tied.
// It merges into a copy of acc.
func classifyLPMerge(acc, msg []float64, seen map[string]int) {
	acc = append([]float64(nil), acc...)
	switch n := filledSlots(acc); {
	case n == 0:
		seen["empty"]++
	case n < lpSlots:
		seen["partly filled"]++
	default:
		seen["full"]++
	}
	for i := 0; i < lpSlots; i++ {
		label, count := msg[2*i], msg[2*i+1]
		if label < 0 || count <= 0 {
			continue
		}
		present, lightest, atLightest := false, math.Inf(1), 0
		for k := 0; k < lpSlots && acc[2*k] >= 0; k++ {
			present = present || acc[2*k] == label
			switch c := acc[2*k+1]; {
			case c < lightest:
				lightest, atLightest = c, 1
			case c == lightest:
				atLightest++
			}
		}
		switch {
		case present:
			seen["present"]++
		case filledSlots(acc) == lpSlots:
			if count > lightest {
				seen["eviction"]++
			} else {
				seen["refused"]++
			}
			if count == lightest || atLightest > 1 {
				seen["tie"]++
			}
		}
		mergeLabelOracle(acc, label, count)
	}
}

// filledSlots counts a histogram row's filled slots.
func filledSlots(row []float64) int {
	n := 0
	for i := 0; i < lpSlots; i++ {
		if row[2*i] >= 0 {
			n++
		}
	}
	return n
}

// bitsEqual compares two rows bit for bit.
func bitsEqual(a, b []float64) bool {
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
