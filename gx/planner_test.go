package gx

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestEstimateDeterministic: the planner's prediction is a pure function
// of the scenario — repeated calls (memoized or not) agree exactly, a
// fresh planner agrees with a warm one, and running a suite through the
// planner leaves what it predicts unchanged.
func TestEstimateDeterministic(t *testing.T) {
	suite := suiteSixEntries()
	s := suite.Entries[0].Scenario
	cache := NewDatasetCache()
	p := NewPlanner(cache)
	a, err := p.Estimate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Estimate(s) // memo hit
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewPlanner(nil).Estimate(s) // cold
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSuite(suite, WithCache(cache), WithPlanner(p), WithPlan(LPT)); err != nil {
		t.Fatal(err)
	}
	d, err := p.Estimate(s) // after the scenario ran on this planner
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != c || a != d {
		t.Fatalf("estimates disagree: %+v / %+v / %+v / %+v", a, b, c, d)
	}
	if a.Makespan <= 0 || a.Supersteps <= 0 || a.Entities <= 0 {
		t.Fatalf("degenerate estimate %+v", a)
	}
}

// TestEstimateInvalidScenario: an unpriceable scenario errors instead of
// returning a zero estimate.
func TestEstimateInvalidScenario(t *testing.T) {
	p := NewPlanner(nil)
	if _, err := p.Estimate(Scenario{Engine: "powergraph", Algorithm: "pagerank", Dataset: "no-such-dataset", Nodes: 2}); err == nil {
		t.Fatal("unknown dataset priced")
	}
}

// TestPlanSuite: the schedule orders entries by descending predicted
// makespan with suite-order tie-breaks, prices every entry, and the
// greedy pool simulation lands between makespan bounds.
func TestPlanSuite(t *testing.T) {
	p := NewPlanner(nil)
	plan, err := p.PlanSuite(suiteSixEntries(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) != 6 || len(plan.Order) != 6 || plan.Pool != 2 {
		t.Fatalf("plan shape: %+v", plan)
	}
	var serial time.Duration
	for i, ee := range plan.Entries {
		if ee.Err != "" || ee.Makespan <= 0 {
			t.Fatalf("entry %d unpriced: %+v", i, ee)
		}
		serial += ee.Makespan
	}
	if serial != plan.PredictedSerial {
		t.Fatalf("serial %v != sum %v", plan.PredictedSerial, serial)
	}
	for k := 1; k < len(plan.Order); k++ {
		a, b := plan.Entries[plan.Order[k-1]], plan.Entries[plan.Order[k]]
		if a.Makespan < b.Makespan {
			t.Fatalf("order not descending at %d: %v then %v", k, a.Makespan, b.Makespan)
		}
		if a.Makespan == b.Makespan && plan.Order[k-1] > plan.Order[k] {
			t.Fatalf("tie at %d not broken by suite order", k)
		}
	}
	// Pool-2 makespan: at least half the serial cost, at most all of it.
	if plan.PredictedMakespan < serial/2 || plan.PredictedMakespan > serial {
		t.Fatalf("pool-2 makespan %v outside [%v, %v]", plan.PredictedMakespan, serial/2, serial)
	}

	// Validation flows through.
	if _, err := p.PlanSuite(Suite{}, 1); err == nil || !strings.Contains(err.Error(), "no entries") {
		t.Fatalf("empty suite planned: %v", err)
	}
}

// TestLPTBitIdentical is the tentpole's determinism lock: LPT dispatch
// at every pool size produces results bit-identical to file-order
// dispatch on one worker — same attrs digests, same totals, same virtual
// times, and the same entry-done emission order.
func TestLPTBitIdentical(t *testing.T) {
	suite := suiteSixEntries()
	run := func(plan Plan, pool int) (*SuiteResult, []string) {
		var done []string
		res, err := RunSuite(suite,
			WithPool(pool),
			WithPlan(plan),
			WithEntryDone(func(er EntryResult) { done = append(done, er.Name) }),
		)
		if err != nil {
			t.Fatal(err)
		}
		return res, done
	}
	ref, refDone := run(FileOrder, 1)
	for _, pool := range []int{1, 2, 4, 8} {
		got, gotDone := run(LPT, pool)
		if len(got.Entries) != len(ref.Entries) {
			t.Fatalf("pool %d: %d entries vs %d", pool, len(got.Entries), len(ref.Entries))
		}
		for i := range ref.Entries {
			r, g := ref.Entries[i], got.Entries[i]
			if g.Name != r.Name || g.Summary.AttrsDigest != r.Summary.AttrsDigest {
				t.Errorf("pool %d entry %q: digest %s vs %s", pool, r.Name, g.Summary.AttrsDigest, r.Summary.AttrsDigest)
			}
			if g.Totals != r.Totals {
				t.Errorf("pool %d entry %q: totals %+v vs %+v", pool, r.Name, g.Totals, r.Totals)
			}
			if g.Summary.Time != r.Summary.Time {
				t.Errorf("pool %d entry %q: makespan %v vs %v", pool, r.Name, g.Summary.Time, r.Summary.Time)
			}
		}
		if strings.Join(gotDone, ",") != strings.Join(refDone, ",") {
			t.Errorf("pool %d: done order %v vs %v", pool, gotDone, refDone)
		}
	}
}

// TestLPTPacksSkewedSuite: on a suite whose few heavy entries sit at the
// end of file order — fewer of them than the pool has workers — LPT
// dispatch packs the realized per-entry virtual times into a strictly
// tighter pool makespan than file order does.
func TestLPTPacksSkewedSuite(t *testing.T) {
	const pool = 4
	var suite Suite
	suite.Name = "skew"
	for i := 0; i < 8; i++ {
		suite.Entries = append(suite.Entries, SuiteEntry{
			Name: fmt.Sprintf("light-%d", i),
			Scenario: Scenario{Engine: "graphx", Algorithm: "pagerank", Dataset: "orkut",
				Scale: 20000, Nodes: 1 + i%4, MaxIter: 2 + i%3},
		})
	}
	for i := 0; i < 2; i++ {
		suite.Entries = append(suite.Entries, SuiteEntry{
			Name: fmt.Sprintf("heavy-%d", i),
			Scenario: Scenario{Engine: "graphx", Algorithm: "pagerank", Dataset: "orkut",
				Scale: 5000, Seed: int64(i), Nodes: 2, MaxIter: 18},
		})
	}
	cache := NewDatasetCache()
	sp, err := NewPlanner(cache).PlanSuite(suite, pool)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite(suite, WithPool(pool), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	times := make([]time.Duration, len(res.Entries))
	fileOrder := make([]int, len(res.Entries))
	for i, e := range res.Entries {
		if e.Err != nil {
			t.Fatalf("entry %s: %v", e.Name, e.Err)
		}
		times[i], fileOrder[i] = e.Summary.Time, i
	}
	fo := packMakespan(times, fileOrder, pool)
	lpt := packMakespan(times, sp.Order, pool)
	if lpt >= fo {
		t.Fatalf("LPT makespan %v not tighter than file order %v (order %v, times %v)", lpt, fo, sp.Order, times)
	}
}

// TestRunSuiteRejectsUnknownPlan: plan values are validated like pool
// sizes.
func TestRunSuiteRejectsUnknownPlan(t *testing.T) {
	if _, err := RunSuite(suiteSixEntries(), WithPlan("random")); err == nil || !strings.Contains(err.Error(), "unknown plan") {
		t.Fatalf("bad plan accepted: %v", err)
	}
}
